package preprocess

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/intern"
	"skynet/internal/provenance"
)

// refAdd is the row-by-row absorb AddBatch replaced, kept as its
// reference: plain per-row link-alert split, Append, and one
// provenance.Ingest per buffered row. It leaves the dense-ID columns
// NoID; AddBatch interns them at append, which internedColumns checks.
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

// internedColumns checks that every pending row's dense IDs resolve to
// its own location, (source, type) and circuit set — TID NoID for a raw
// syslog row, which is typed only when absorbed — and returns the
// pending columns with those IDs reset to NoID, the reference's shape.
func internedColumns(t *testing.T, p *Preprocessor) alert.Batch {
	t.Helper()
	b := p.pending
	for i := 0; i < b.Len(); i++ {
		if got := p.pt.Path(intern.PathID(b.PID[i])); got != b.Location[i] {
			t.Fatalf("row %d: PID %d resolves to %v, want %v", i, b.PID[i], got, b.Location[i])
		}
		if b.Source[i] == alert.SourceSyslog && b.Type[i] == "" {
			if b.TID[i] != alert.NoID {
				t.Fatalf("row %d: untyped syslog row carries TID %d", i, b.TID[i])
			}
		} else if got, want := p.tt.Key(intern.TypeID(b.TID[i])), (alert.TypeKey{Source: b.Source[i], Type: b.Type[i]}); got != want {
			t.Fatalf("row %d: TID %d resolves to %v, want %v", i, b.TID[i], got, want)
		}
		if want := p.csIDs[b.CircuitSet[i]]; b.CS[i] != want {
			t.Fatalf("row %d: CS %d, want %d", i, b.CS[i], want)
		}
	}
	b.PID, b.TID, b.CS = noIDs(b.Len()), noIDs(b.Len()), noIDs(b.Len())
	return b
}

func noIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = alert.NoID
	}
	return ids
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
			if cols := internedColumns(t, got); !reflect.DeepEqual(cols, want.pending) {
				t.Fatalf("sampleEvery=%d layout %q: pending columns differ\n got %+v\nwant %+v",
					sampleEvery, layout, cols, want.pending)
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

// TestAbsorbChunkingInvariance feeds one flood-sized row sequence three
// ways — each tick's rows as one batch, as 512-row batches (the ingest
// readers' flush size) and as one-row Add calls — with tick segments that
// fall short of, land on and straddle maxPending, so the early absorbs
// cut the sequence in different places every time. Tick output (IDs
// included), Stats, the provenance ledger and ShardRouted must not
// depend on the cuts, at workers {1, 2, 4, 8}; and the pending columns
// never hold more than maxPending rows.
func TestAbsorbChunkingInvariance(t *testing.T) {
	classifier, err := BootstrapClassifier()
	if err != nil {
		t.Fatal(err)
	}
	// Rows cycle over 97 devices × a layout with link alerts (split in
	// two), classifiable and unclassifiable syslog, and traffic drops
	// (held for corroboration), so every absorb branch runs on both
	// sides of a cut.
	segments := []int{2*maxPending + 100, 300, maxPending - 1, maxPending, maxPending + 1, 0, 5}
	const layout = "oolospdoou"
	var ticks [][]alert.Alert
	at, n := epoch, 0
	for _, size := range segments {
		rows := make([]alert.Alert, size)
		for i := range rows {
			loc := devLoc.Parent().MustChild(fmt.Sprintf("dev-%d", n%97))
			a := raw(alert.SourceSNMP, alert.TypeLinkDown, at.Add(time.Duration(i)*time.Millisecond), loc, float64(n%7))
			switch layout[n%len(layout)] {
			case 'l':
				a.Peer, a.CircuitSet = devLocB, fmt.Sprintf("cs-%d", n%5)
			case 'p':
				a.Source, a.Type, a.Class = alert.SourcePing, alert.TypePacketLoss, alert.ClassFailure
				a.Value = 0.01 * float64(n%9)
			case 'd':
				a.Source, a.Type, a.Class = alert.SourceTraffic, alert.TypeTrafficDrop, alert.ClassAbnormal
			case 's':
				a = alert.Alert{Source: alert.SourceSyslog, Time: a.Time, End: a.Time, Location: loc, Count: 1,
					Raw: "%LINK-3-UPDOWN: Interface TenGigE0/9/0/1, changed state to down (cut)"}
			case 'u':
				a = alert.Alert{Source: alert.SourceSyslog, Time: a.Time, End: a.Time, Location: loc, Count: 1,
					Raw: "no template matches this line"}
			}
			rows[i] = a
			n++
		}
		ticks = append(ticks, rows)
		at = at.Add(10 * time.Second)
	}
	type feed func(p *Preprocessor, rows []alert.Alert)
	batches := func(size int) feed {
		return func(p *Preprocessor, rows []alert.Alert) {
			var b alert.Batch
			for lo := 0; lo < len(rows); lo += size {
				b.Reset()
				for i := lo; i < min(lo+size, len(rows)); i++ {
					b.Append(&rows[i])
				}
				p.AddBatch(&b)
				if d := p.PendingDepth(); d >= maxPending {
					t.Fatalf("pending depth %d after AddBatch, want < %d", d, maxPending)
				}
			}
		}
	}
	feeds := []struct {
		name string
		feed feed
	}{
		{"one batch per tick", batches(1 << 30)},
		{"512-row batches", batches(512)},
		{"one-row Adds", func(p *Preprocessor, rows []alert.Alert) {
			for i := range rows {
				p.Add(rows[i])
			}
		}},
	}
	run := func(workers int, f feed) (out string, routed [][]int, stats Stats, ledger provenance.Counters) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		p := New(cfg, nil, classifier)
		rec := provenance.New(provenance.Config{})
		p.EnableProvenance(rec)
		var sb strings.Builder
		now := epoch
		for _, rows := range ticks {
			f(p, rows)
			now = now.Add(10 * time.Second)
			for _, a := range p.Tick(now) {
				fmt.Fprintf(&sb, "%+v\n", a)
			}
			perShard := make([]int, p.Workers())
			for s := range perShard {
				perShard[s] = p.ShardRouted(s)
			}
			routed = append(routed, perShard)
		}
		for _, a := range p.Drain(now.Add(time.Minute)) {
			fmt.Fprintf(&sb, "%+v\n", a)
		}
		return sb.String(), routed, p.Stats(), rec.Counters()
	}
	refOut, refRouted, refStats, refLedger := run(1, feeds[0].feed)
	if refStats.Out == 0 || refStats.Deduplicated == 0 || refStats.DroppedUnclassified == 0 {
		t.Fatalf("reference run exercised too little: %+v", refStats)
	}
	// Every row of a tick is routed in that tick, wherever it was absorbed:
	// link alerts count twice, unclassifiable syslog not at all.
	for i, rows := range ticks {
		want := 0
		for j := range rows {
			switch {
			case rows[j].CircuitSet != "":
				want += 2
			case rows[j].Source != alert.SourceSyslog || strings.HasPrefix(rows[j].Raw, "%"):
				want++
			}
		}
		if got := refRouted[i][0]; got != want {
			t.Errorf("tick %d: %d rows routed, want %d", i, got, want)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var wantRouted [][]int
		for _, f := range feeds {
			out, routed, stats, ledger := run(workers, f.feed)
			if out != refOut {
				t.Errorf("workers=%d, %s: tick output diverged from the reference", workers, f.name)
			}
			if stats != refStats {
				t.Errorf("workers=%d, %s: stats %+v, want %+v", workers, f.name, stats, refStats)
			}
			if ledger != refLedger {
				t.Errorf("workers=%d, %s: provenance ledger %+v, want %+v", workers, f.name, ledger, refLedger)
			}
			if wantRouted == nil {
				wantRouted = routed
			}
			if !reflect.DeepEqual(routed, wantRouted) {
				t.Errorf("workers=%d, %s: ShardRouted %v, want %v", workers, f.name, routed, wantRouted)
			}
			for i := range routed {
				sum := 0
				for _, r := range routed[i] {
					sum += r
				}
				if sum != refRouted[i][0] {
					t.Errorf("workers=%d, %s, tick %d: %d rows routed across shards, want %d", workers, f.name, i, sum, refRouted[i][0])
				}
			}
		}
	}
}
