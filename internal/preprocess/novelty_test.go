package preprocess

import (
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
)

// TestAddBatchReportsNewEvidence pins AddBatch's novelty answer: true
// exactly when some row's consolidation key (location, type, circuit
// set) has no live aggregate, checking both halves of a split link
// alert, and for a raw syslog line when its location has no live
// aggregate at all. Repeats of known streams — including the one that
// lifts sporadic loss to SporadicMinCount — report false, and the
// answer costs no allocation at workers 1 and 4.
func TestAddBatchReportsNewEvidence(t *testing.T) {
	devLocC := hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-c")
	link := func(cs string, peer hierarchy.Path) alert.Alert {
		a := raw(alert.SourceSNMP, alert.TypeLinkDown, epoch, devLoc, 1)
		a.Peer, a.CircuitSet = peer, cs
		return a
	}
	syslog := func(loc hierarchy.Path) alert.Alert {
		return alert.Alert{
			Source: alert.SourceSyslog, Time: epoch, End: epoch, Location: loc, Count: 1,
			Raw: "%LINK-3-UPDOWN: Interface TenGigE0/9/0/1, changed state to down (cut)",
		}
	}
	lowLoss := raw(alert.SourcePing, alert.TypePacketLoss, epoch, devLocC, 0.01)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		p := New(cfg, nil, classifier(t))
		var b alert.Batch
		add := func(rows ...alert.Alert) bool {
			b.Reset()
			for i := range rows {
				b.Append(&rows[i])
			}
			return p.AddBatch(&b)
		}
		// Seed: link down on dev-a/dev-b over cs-1, and sporadic loss on
		// dev-c; a tick turns them into live aggregates.
		if !add(link("cs-1", devLocB), lowLoss) {
			t.Fatalf("workers=%d: first batch is not new evidence", workers)
		}
		if !add(link("cs-1", devLocB)) {
			t.Fatalf("workers=%d: a repeat still pending (no aggregate yet) is not new evidence", workers)
		}
		p.Tick(epoch.Add(10 * time.Second))

		for _, c := range []struct {
			name string
			rows []alert.Alert
			want bool
		}{
			{"repeat of a live stream", []alert.Alert{link("cs-1", devLocB)}, false},
			{"empty batch", nil, false},
			{"sporadic repeats", []alert.Alert{lowLoss, lowLoss, lowLoss}, false},
			{"new type at a known location", []alert.Alert{raw(alert.SourceSNMP, alert.TypePortDown, epoch, devLoc, 1)}, true},
			{"new circuit set", []alert.Alert{link("cs-2", devLocB)}, true},
			{"new mirrored endpoint", []alert.Alert{link("cs-1", devLocC)}, true},
			{"new row behind repeats", []alert.Alert{lowLoss, raw(alert.SourcePing, alert.TypePacketLoss, epoch, devLocB, 0.5)}, true},
			{"raw syslog at a known location", []alert.Alert{syslog(devLocB)}, false},
			{"raw syslog at a new location", []alert.Alert{syslog(hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-d"))}, true},
		} {
			if got := add(c.rows...); got != c.want {
				t.Errorf("workers=%d %s: AddBatch = %v, want %v", workers, c.name, got, c.want)
			}
		}

		p.Tick(epoch.Add(20 * time.Second))
		repeat := link("cs-1", devLocB)
		b.Reset()
		b.Append(&repeat)
		if avg := testing.AllocsPerRun(100, func() { p.AddBatch(&b) }); avg != 0 {
			t.Errorf("workers=%d: AddBatch of a known stream allocates %.1f times, want 0", workers, avg)
		}
	}
}
