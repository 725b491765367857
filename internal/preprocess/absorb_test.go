package preprocess

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/provenance"
)

// refAdd is the row-by-row absorb AddBatch replaced, kept as its
// reference: plain per-row link-alert split, Append, and one
// provenance.Ingest per buffered row.
func refAdd(p *Preprocessor, a alert.Alert) {
	p.stats.In++
	if a.CircuitSet != "" && a.Location.IsDevice() && a.Peer.IsDevice() && a.Peer != a.Location {
		mirrored := a
		mirrored.Location, mirrored.Peer = a.Peer, a.Location
		p.pending.Append(&mirrored)
		if p.prov != nil {
			p.pendingLin = append(p.pendingLin, p.prov.Ingest(&mirrored, true))
		}
	}
	p.pending.Append(&a)
	if p.prov != nil {
		p.pendingLin = append(p.pendingLin, p.prov.Ingest(&a, false))
	}
}

// absorbRows builds a batch's worth of raw alerts from a layout string:
// 'o' an ordinary row, 'l' a link alert (split in two), 's' a raw syslog
// line, 'p' a row with a peer but no circuit set (not split).
func absorbRows(layout string, at time.Time) []alert.Alert {
	var rows []alert.Alert
	for i, c := range layout {
		a := raw(alert.SourceSNMP, alert.TypeLinkDown, at.Add(time.Duration(i)*time.Second), devLoc, float64(i))
		switch c {
		case 'l':
			a.Peer, a.CircuitSet = devLocB, fmt.Sprintf("cs-%d", i)
		case 'p':
			a.Peer = devLocB
		case 's':
			a = alert.Alert{
				Source: alert.SourceSyslog, Time: a.Time, End: a.Time, Location: devLocB, Count: 1,
				Raw: "%LINK-3-UPDOWN: Interface TenGigE0/9/0/1, changed state to down (cut)",
			}
		}
		rows = append(rows, a)
	}
	return rows
}

// TestAddBatchMatchesRowReference checks the single absorb against the
// row-by-row reference: identical pending columns, lineage IDs (mirrored
// half numbered before the original), Stats().In, provenance ledger and
// sampled ring records — with link alerts first, last, adjacent and
// alone, with the recorder detached (sampleEvery 0), recording every
// lineage (1) and sampling (4).
func TestAddBatchMatchesRowReference(t *testing.T) {
	layouts := []string{"oooo", "looo", "oool", "ollo", "lslp", "l", "ll", "sopsl", ""}
	for _, sampleEvery := range []int{0, 1, 4} {
		got, want := New(DefaultConfig(), nil, nil), New(DefaultConfig(), nil, nil)
		var gotRec, wantRec *provenance.Recorder
		if sampleEvery > 0 {
			gotRec = provenance.New(provenance.Config{SampleEvery: sampleEvery})
			wantRec = provenance.New(provenance.Config{SampleEvery: sampleEvery})
			got.EnableProvenance(gotRec)
			want.EnableProvenance(wantRec)
		}
		// Every layout lands in the same pending buffer, so lineage
		// numbering also carries across AddBatch calls.
		for i, layout := range layouts {
			rows := absorbRows(layout, epoch.Add(time.Duration(i)*time.Minute))
			var b alert.Batch
			for j := range rows {
				b.Append(&rows[j])
				refAdd(want, rows[j])
			}
			got.AddBatch(&b)
			if !reflect.DeepEqual(got.pending, want.pending) {
				t.Fatalf("sampleEvery=%d layout %q: pending columns differ\n got %+v\nwant %+v",
					sampleEvery, layout, got.pending, want.pending)
			}
			if !reflect.DeepEqual(got.pendingLin, want.pendingLin) {
				t.Fatalf("sampleEvery=%d layout %q: lineage IDs %v, want %v",
					sampleEvery, layout, got.pendingLin, want.pendingLin)
			}
		}
		if got.Stats() != want.Stats() {
			t.Errorf("sampleEvery=%d: stats %+v, want %+v", sampleEvery, got.Stats(), want.Stats())
		}
		if sampleEvery == 0 {
			if got.pendingLin != nil {
				t.Errorf("detached recorder assigned lineages: %v", got.pendingLin)
			}
			continue
		}
		if gotRec.Counters() != wantRec.Counters() {
			t.Errorf("sampleEvery=%d: ledger %+v, want %+v", sampleEvery, gotRec.Counters(), wantRec.Counters())
		}
		sampled := 0
		for _, lid := range want.pendingLin {
			g, gok := gotRec.Lineage(lid)
			w, wok := wantRec.Lineage(lid)
			if gok != wok || !reflect.DeepEqual(g, w) {
				t.Errorf("sampleEvery=%d lineage %d: ring record %+v (%v), want %+v (%v)", sampleEvery, lid, g, gok, w, wok)
			}
			if wok {
				sampled++
			}
		}
		// Lineage IDs count from 1 and the multiples of sampleEvery are kept.
		if n := len(want.pendingLin); sampled != n/sampleEvery {
			t.Errorf("sampleEvery=%d: %d ring records for %d lineages", sampleEvery, sampled, n)
		}
	}
}

// TestAddBatchAllocFree pins the steady-state absorb at 0 allocs/op with
// the lineage recorder attached — the configuration skynetd runs — and
// detached, link-alert split included.
func TestAddBatchAllocFree(t *testing.T) {
	rows := absorbRows("oooooooolooooooosooooooooooooool", epoch)
	var b alert.Batch
	for i := range rows {
		b.Append(&rows[i])
	}
	for _, rec := range []*provenance.Recorder{nil, provenance.New(provenance.Config{})} {
		p := New(DefaultConfig(), nil, nil)
		p.EnableProvenance(rec)
		absorb := func() {
			p.AddBatch(&b)
			p.pending.Reset()
			p.pendingLin = p.pendingLin[:0]
		}
		absorb() // grow the pending columns once
		if avg := testing.AllocsPerRun(100, absorb); avg != 0 {
			t.Errorf("recorder attached=%v: warm AddBatch allocates %.1f times per run, want 0", rec != nil, avg)
		}
	}
}
