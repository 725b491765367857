package preprocess

import (
	"math/bits"
	"slices"
	"time"

	"skynet/internal/alert"
	"skynet/internal/ftree"
	"skynet/internal/topology"
)

// Batch helpers for experiments and trace replay. The streaming API (Add/
// Tick) is the production path; ProcessFunc and Process wrap it for
// offline corpora.

// ProcessFunc runs a whole raw-alert slice through a fresh preprocessor,
// ticking at the given interval, and calls fn with every non-empty batch
// of structured output. Alerts are processed in timestamp order (ties
// keep their input order). The batch slice passed to fn is reused by the
// next tick; fn must copy alerts it retains.
//
// The raw slice itself is neither copied nor reordered: ordering is done
// through a sorted index array, so the only per-corpus allocation here is
// 4 bytes per raw alert.
func ProcessFunc(cfg Config, topo *topology.Topology, classifier *ftree.Classifier,
	raw []alert.Alert, tick time.Duration, fn func([]alert.Alert)) Stats {
	if tick <= 0 {
		tick = 10 * time.Second
	}
	p := New(cfg, topo, classifier)
	if len(raw) == 0 {
		return p.Stats()
	}
	idx := sortedByTime(raw)
	emit := func(batch []alert.Alert) {
		if len(batch) > 0 {
			fn(batch)
		}
	}
	// Each tick's alerts are gathered into one reused batch and absorbed
	// whole right before the tick.
	var batch alert.Batch
	next := raw[idx[0]].Time.Add(tick)
	for _, ix := range idx {
		a := &raw[ix]
		for a.Time.After(next) {
			p.AddBatch(&batch)
			batch.Reset()
			emit(p.Tick(next))
			next = next.Add(tick)
		}
		batch.Append(a)
	}
	p.AddBatch(&batch)
	end := raw[idx[len(idx)-1]].Time
	for !next.After(end.Add(cfg.AggWindow)) {
		emit(p.Tick(next))
		next = next.Add(tick)
	}
	emit(p.Drain(next))
	return p.Stats()
}

// sortedByTime returns raw's indices in timestamp order, ties keeping
// input order. When the corpus is small enough and its time span short
// enough, (delta-nanos, index) pairs pack into single int64 keys and an
// integer pdqsort replaces the closure-comparator sort — roughly 4x
// faster on real corpora. Oversized corpora fall back to the general
// comparator.
func sortedByTime(raw []alert.Alert) []int32 {
	minT, maxT := raw[0].Time, raw[0].Time
	for i := range raw {
		if raw[i].Time.Before(minT) {
			minT = raw[i].Time
		}
		if raw[i].Time.After(maxT) {
			maxT = raw[i].Time
		}
	}
	// idxBits is the narrowest index width that fits the corpus, leaving
	// the rest of the 63 value bits for the time delta — e.g. 20k rows
	// (15 bits) leave room for a ~3-day span at nanosecond resolution.
	idxBits := bits.Len(uint(len(raw)))
	span := maxT.Sub(minT)
	if span >= 0 && uint64(span) < 1<<(63-idxBits) {
		keys := make([]int64, len(raw))
		for i := range raw {
			keys[i] = raw[i].Time.Sub(minT).Nanoseconds()<<idxBits | int64(i)
		}
		slices.Sort(keys)
		idx := make([]int32, len(raw))
		for i, k := range keys {
			idx[i] = int32(k & (1<<idxBits - 1))
		}
		return idx
	}
	idx := make([]int32, len(raw))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int {
		ti, tj := raw[i].Time, raw[j].Time
		if ti.Before(tj) {
			return -1
		}
		if tj.Before(ti) {
			return 1
		}
		// Equal timestamps keep input order — the stability guarantee.
		if i < j {
			return -1
		}
		return 1
	})
	return idx
}

// Process is ProcessFunc with the output batches accumulated into one
// slice, for callers that want the whole structured corpus at once.
func Process(cfg Config, topo *topology.Topology, classifier *ftree.Classifier,
	raw []alert.Alert, tick time.Duration) ([]alert.Alert, Stats) {
	var out []alert.Alert
	stats := ProcessFunc(cfg, topo, classifier, raw, tick, func(batch []alert.Alert) {
		out = append(out, batch...)
	})
	return out, stats
}

// SyslogCorpus extracts the raw lines of syslog alerts, the training input
// for an FT-tree classifier ("initially, it gathers command-line outputs
// from all devices", §4.1).
func SyslogCorpus(raw []alert.Alert) []string {
	var out []string
	for i := range raw {
		if raw[i].Source == alert.SourceSyslog && raw[i].Raw != "" {
			out = append(out, raw[i].Raw)
		}
	}
	return out
}

// TrainClassifier trains an FT-tree classifier from the syslog lines in a
// raw alert corpus. Returns nil when the corpus has no syslog lines.
func TrainClassifier(raw []alert.Alert, cfg ftree.Config) (*ftree.Classifier, error) {
	corpus := SyslogCorpus(raw)
	if len(corpus) == 0 {
		return nil, nil
	}
	return ftree.NewClassifier(corpus, cfg)
}

// BootstrapCorpus returns a canonical training corpus covering every
// message family the syslog monitor can emit, for pipelines that must
// classify from the first alert (production trains on history; a fresh
// simulation has none).
func BootstrapCorpus() []string {
	families := []string{
		"%LINK-3-UPDOWN: Interface TenGigE0/1/0/25, changed state to down (peer)",
		"%LINEPROTO-5-UPDOWN: Line protocol on Interface TenGigE0/1/0/25, changed state to down",
		"%BGP-5-ADJCHANGE: neighbor 10.0.0.1 Down - Hold timer expired",
		"%BGP-4-FLAP: neighbor 10.0.0.2 session flapping, count 12",
		"%PLATFORM-2-HW_ERROR: Linecard 1 parity error detected at 0xbeef",
		"%SYSMGR-3-PROC_RESTART: Process rpd restarted, pid 1234",
		"%SYSTEM-2-MEMORY: Out of memory in process rpd, requested 65536 bytes",
		"%IF-3-CRC: Interface HundredGigE0/0/0/4 CRC errors 1532",
		"%CONFIG-3-COMMIT: configuration commit 42 rejected: invalid statement",
		"%PTP-4-OFFSET: clock offset 1500 us beyond threshold",
	}
	// Repeat each family with varied variable fields so every template
	// clears MinSupport.
	variants := []string{
		"%LINK-3-UPDOWN: Interface HundredGigE1/0/0/2, changed state to down (fiber)",
		"%LINEPROTO-5-UPDOWN: Line protocol on Interface FortyGigE0/2/1/7, changed state to down",
		"%BGP-5-ADJCHANGE: neighbor 10.20.30.40 Down - Hold timer expired",
		"%BGP-4-FLAP: neighbor 10.9.8.7 session flapping, count 99",
		"%PLATFORM-2-HW_ERROR: Linecard 7 parity error detected at 0x1f2e",
		"%SYSMGR-3-PROC_RESTART: Process rpd restarted, pid 777",
		"%SYSTEM-2-MEMORY: Out of memory in process rpd, requested 1024 bytes",
		"%IF-3-CRC: Interface TenGigE1/3/0/11 CRC errors 89",
		"%CONFIG-3-COMMIT: configuration commit 7 rejected: conflict",
		"%PTP-4-OFFSET: clock offset 800 us beyond threshold",
	}
	out := make([]string, 0, len(families)+len(variants))
	out = append(out, families...)
	out = append(out, variants...)
	return out
}

// BootstrapClassifier trains a classifier from the bootstrap corpus.
func BootstrapClassifier() (*ftree.Classifier, error) {
	return ftree.NewClassifier(BootstrapCorpus(), ftree.DefaultConfig())
}
