package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// readUint reads one cumulative or gauge runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// totalAlloc is the process's cumulative heap allocation in bytes
// (runtime.MemStats.TotalAlloc, read without stopping the world).
func totalAlloc() uint64 { return readUint("/gc/heap/allocs:bytes") }

// heapInUse is the bytes of heap memory occupied by objects.
func heapInUse() uint64 { return readUint("/memory/classes/heap/objects:bytes") }

// heapPeak samples heapInUse every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := heapInUse()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- max(peak, heapInUse())
				return
			case <-t.C:
				peak = max(peak, heapInUse())
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the
// highest heap seen, in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// gcWindow brackets a phase to report the share of CPU time the
// garbage collector took and its total stop-the-world pause time.
type gcWindow struct {
	gcCPU, allCPU float64
	pauseNS       uint64
}

func startGCWindow() gcWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcWindow{
		gcCPU:   readFloat("/cpu/classes/gc/total:cpu-seconds"),
		allCPU:  readFloat("/cpu/classes/total:cpu-seconds"),
		pauseNS: m.PauseTotalNs,
	}
}

// end returns (GC CPU fraction, pause milliseconds) since the start.
func (w gcWindow) end() (float64, float64) {
	e := startGCWindow()
	return ratio(e.gcCPU-w.gcCPU, e.allCPU-w.allCPU), float64(e.pauseNS-w.pauseNS) / 1e6
}
