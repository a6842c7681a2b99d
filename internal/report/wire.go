package report

import (
	"encoding/json"
	"fmt"
	"time"
)

// SchemaVersion is the version stamped on every wire-encoded report.
// The wire encoding is the stable machine-readable contract between
// ConfValley producers (cvcheck -json, cvserve) and consumers (cvcall,
// log pipelines): field names and meanings never change within a
// version, and a consumer that sees a higher version than it knows
// refuses loudly instead of misreading. Bump it only with an additive
// or breaking schema change, documented in docs/cpl.md.
const SchemaVersion = 1

// WireViolation is one violation in the wire encoding. It mirrors
// Violation but fixes the representation: severity travels as its
// lowercase name, not a Go enum ordinal that an internal reordering
// could silently renumber.
type WireViolation struct {
	SpecID   int    `json:"spec_id"`
	Spec     string `json:"spec"`
	Key      string `json:"key"`
	Value    string `json:"value"`
	Source   string `json:"source"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// Wire is the versioned JSON encoding of a Report. Unlike Report's
// internal marshaling, its shape is a contract: stable field names, a
// schema_version discriminator first, violations always present (never
// null), durations in integer nanoseconds.
type Wire struct {
	SchemaVersion    int             `json:"schema_version"`
	Passed           bool            `json:"passed"`
	SpecsRun         int             `json:"specs_run"`
	SpecsFailed      int             `json:"specs_failed"`
	SpecsReused      int             `json:"specs_reused"`
	InstancesChecked int             `json:"instances_checked"`
	DurationNS       int64           `json:"duration_ns"`
	Stopped          bool            `json:"stopped,omitempty"`
	Interrupted      bool            `json:"interrupted,omitempty"`
	Violations       []WireViolation `json:"violations"`
	SpecErrors       []string        `json:"spec_errors,omitempty"`
}

// Wire converts the report to its wire form.
func (r *Report) Wire() *Wire {
	w := &Wire{
		SchemaVersion:    SchemaVersion,
		Passed:           r.Passed(),
		SpecsRun:         r.SpecsRun,
		SpecsFailed:      r.SpecsFailed,
		SpecsReused:      r.SpecsReused,
		InstancesChecked: r.InstancesChecked,
		DurationNS:       int64(r.Duration),
		Stopped:          r.Stopped,
		Interrupted:      r.Interrupted,
		Violations:       make([]WireViolation, 0, len(r.Violations)),
	}
	for _, v := range r.Violations {
		w.Violations = append(w.Violations, WireViolation{
			SpecID:   v.SpecID,
			Spec:     v.Spec,
			Key:      v.Key,
			Value:    v.Value,
			Source:   v.Source,
			Message:  v.Message,
			Severity: v.Severity.String(),
		})
	}
	if len(r.SpecErrors) > 0 {
		w.SpecErrors = append([]string(nil), r.SpecErrors...)
	}
	return w
}

// EncodeWire renders the report as one compact wire-format JSON object —
// the JSONL stream element of cvcheck -watch -json and the report body
// of cvserve responses.
func (r *Report) EncodeWire() ([]byte, error) { return json.Marshal(r.Wire()) }

// EncodeWireIndented renders the wire encoding indented for humans
// (cvcheck -json without -watch).
func (r *Report) EncodeWireIndented() ([]byte, error) {
	return json.MarshalIndent(r.Wire(), "", "  ")
}

// DecodeWire parses a wire-encoded report, rejecting a missing or
// non-positive schema version and versions newer than this build
// understands.
func DecodeWire(b []byte) (*Wire, error) {
	var w Wire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("report: decoding wire report: %w", err)
	}
	if w.SchemaVersion < 1 {
		return nil, fmt.Errorf("report: wire report has no valid schema_version (got %d)", w.SchemaVersion)
	}
	if w.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("report: wire report schema_version %d is newer than this build's %d", w.SchemaVersion, SchemaVersion)
	}
	return &w, nil
}

// Report reconstructs a renderable Report from the wire form. Per-spec
// splice state does not travel, so the result supports rendering and
// triage grouping, not incremental reuse.
func (w *Wire) Report() *Report {
	r := &Report{
		SpecsRun:         w.SpecsRun,
		SpecsFailed:      w.SpecsFailed,
		SpecsReused:      w.SpecsReused,
		InstancesChecked: w.InstancesChecked,
		Duration:         time.Duration(w.DurationNS),
		Stopped:          w.Stopped,
		Interrupted:      w.Interrupted,
	}
	for _, v := range w.Violations {
		sev, err := ParseSeverity(v.Severity)
		if err != nil {
			sev = Error
		}
		r.Add(Violation{
			SpecID:   v.SpecID,
			Spec:     v.Spec,
			Key:      v.Key,
			Value:    v.Value,
			Source:   v.Source,
			Message:  v.Message,
			Severity: sev,
		})
	}
	r.SpecErrors = append(r.SpecErrors, w.SpecErrors...)
	return r
}
