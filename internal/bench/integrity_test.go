package bench

import (
	"testing"

	"dpnfs/internal/metrics"
)

// snapshotTotal sums every series of the named family in a report snapshot.
func snapshotTotal(snap *metrics.Snapshot, name string) float64 {
	var sum float64
	for _, m := range snap.Metrics {
		if m.Name == name {
			for _, s := range m.Series {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestIntegrityReportGate is the integrity figure's release gate, run on the
// report exactly as `dpnfs-bench -fig integrity -scale 0.05 -clients 2
// -report` writes it, across all five architectures: corruption was
// injected, at least one foreground read-repair engaged, every repair
// followed a detected corrupt read, the background scrub scanned the
// stores, and every phase point is non-vacuous.  The workload fails the
// figure on any mismatched byte, so a report at all means zero corrupt
// bytes were delivered.
func TestIntegrityReportGate(t *testing.T) {
	opt := Options{Scale: 0.05, Clients: []int{2}}
	rep := NewReport(opt)
	if _, err := rep.Add("integrity", opt); err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	snap := fig.Metrics
	if got := snapshotTotal(snap, "faults_injected_total"); got < 1 {
		t.Errorf("faults_injected_total = %v: no corruption injected", got)
	}
	repairs := snapshotTotal(snap, "nfs_client_read_repairs_total") +
		snapshotTotal(snap, "pvfs_client_read_repairs_total")
	if repairs < 1 {
		t.Errorf("read repairs = %v: no read-repair engaged", repairs)
	}
	detected := snapshotTotal(snap, "nfs_client_corrupt_reads_total") +
		snapshotTotal(snap, "pvfs_client_corrupt_reads_total")
	if detected < repairs {
		t.Errorf("more repairs than detections: detected=%v repaired=%v", detected, repairs)
	}
	if got := snapshotTotal(snap, "scrub_extents_total"); got < 1 {
		t.Errorf("scrub_extents_total = %v: the background scrub never scanned", got)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("vacuous phase: %s at %v = %v", s.Label, p.X, p.Y)
			}
		}
	}
}
