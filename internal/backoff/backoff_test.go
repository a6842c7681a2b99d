package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayDoublesAndCaps(t *testing.T) {
	for n, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 4: 50 * time.Millisecond, 60: 50 * time.Millisecond} {
		if got := Delay(n, 10*time.Millisecond, 50*time.Millisecond, 0); got != want {
			t.Errorf("Delay(%d) = %v, want %v", n, got, want)
		}
	}
	if got := Delay(4, 10*time.Millisecond, 0, 0); got != 80*time.Millisecond {
		t.Errorf("uncapped Delay(4) = %v, want 80ms", got)
	}
	for i := 0; i < 100; i++ {
		if d := Delay(2, 10*time.Millisecond, 0, 0.5); d < 20*time.Millisecond || d >= 30*time.Millisecond {
			t.Fatalf("jittered delay %v outside [20ms, 30ms)", d)
		}
	}
}

func TestSleepHonorsContext(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Sleep = %v", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero-delay Sleep under canceled ctx = %v", err)
	}
}
