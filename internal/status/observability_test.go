package status

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/hierarchy"
	"skynet/internal/ingest"
	"skynet/internal/preprocess"
	"skynet/internal/telemetry"
)

// instrumentedEngine builds an engine with telemetry + journal attached
// and one incident generated.
func instrumentedEngine(t *testing.T) (*core.Engine, *sync.Mutex, *telemetry.Registry, *telemetry.Journal) {
	t.Helper()
	classifier, err := preprocess.BootstrapClassifier()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.DefaultConfig(), nil, classifier, nil, nil)
	reg := telemetry.New()
	j := telemetry.NewJournal(0)
	eng.EnableTelemetry(reg, j)
	dev := hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-a")
	for i, typ := range []string{alert.TypePacketLoss, alert.TypeEndToEndICMP} {
		eng.Ingest(alert.Alert{
			Source: alert.SourcePing, Type: typ, Class: alert.ClassFailure,
			Time: epoch.Add(time.Duration(i) * time.Second), End: epoch.Add(time.Duration(i) * time.Second),
			Location: dev, Value: 0.4, Count: 1,
		})
	}
	eng.Tick(epoch.Add(30 * time.Second))
	if len(eng.Active()) == 0 {
		t.Fatal("setup: no incident")
	}
	return eng, &sync.Mutex{}, reg, j
}

func TestMetricsEndpoint(t *testing.T) {
	eng, mu, reg, j := instrumentedEngine(t)
	h := NewSnapshotter(mu, eng, nil).WithTelemetry(reg).WithJournal(j).Handler()
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE skynet_raw_alerts_total counter",
		"skynet_raw_alerts_total 2",
		"# TYPE skynet_tick_seconds histogram",
		`skynet_tick_seconds_bucket{le="+Inf"} 1`,
		"skynet_tick_seconds_count 1",
		"# TYPE skynet_active_incidents gauge",
		"skynet_active_incidents 1",
		"# TYPE skynet_stage_locate_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every line must be a comment or "name[{labels}] value" — the
	// Prometheus text contract.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestMetricsAbsentWithoutRegistry(t *testing.T) {
	eng, mu := loadedEngine(t)
	h := NewSnapshotter(mu, eng, nil).Handler()
	if code, _ := get(t, h, "/metrics"); code != http.StatusNotFound {
		t.Errorf("metrics without registry: %d, want 404", code)
	}
	if code, _ := get(t, h, "/api/journal"); code != http.StatusNotFound {
		t.Errorf("journal without journal: %d, want 404", code)
	}
	if code, _ := get(t, h, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without flag: %d, want 404", code)
	}
}

func TestJournalEndpoint(t *testing.T) {
	eng, mu, reg, j := instrumentedEngine(t)
	h := NewSnapshotter(mu, eng, nil).WithTelemetry(reg).WithJournal(j).Handler()
	code, body := get(t, h, "/api/journal")
	if code != http.StatusOK {
		t.Fatalf("journal: %d", code)
	}
	var events []telemetry.Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Type != telemetry.EventCreated {
		t.Fatalf("journal = %+v, want a created event first", events)
	}
	if events[0].Alerts != 2 {
		t.Errorf("created event alerts = %d, want 2", events[0].Alerts)
	}
	// since= filtering.
	last := events[len(events)-1].Seq
	code, body = get(t, h, "/api/journal?since="+itoa(int(last)))
	if code != http.StatusOK {
		t.Fatalf("journal since: %d", code)
	}
	var newer []telemetry.Event
	if err := json.Unmarshal([]byte(body), &newer); err != nil {
		t.Fatal(err)
	}
	if len(newer) != 0 {
		t.Errorf("since=%d returned %d events, want 0", last, len(newer))
	}
	if code, _ := get(t, h, "/api/journal?since=nope"); code != http.StatusBadRequest {
		t.Errorf("bad since: %d, want 400", code)
	}
}

func TestPprofEndpoint(t *testing.T) {
	eng, mu, reg, _ := instrumentedEngine(t)
	h := NewSnapshotter(mu, eng, nil).WithTelemetry(reg).WithPprof(true).Handler()
	code, body := get(t, h, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d", code)
	}
	if code, _ := get(t, h, "/debug/pprof/symbol"); code != http.StatusOK {
		t.Errorf("pprof symbol: %d", code)
	}
}

// TestConcurrentScrapeWhileIngesting mirrors the skynetd locking pattern:
// one goroutine owns engine mutation under the shared mutex while others
// hammer every HTTP endpoint. Run with -race; the assertions are
// secondary to the race detector's verdict.
func TestConcurrentScrapeWhileIngesting(t *testing.T) {
	eng, mu, reg, j := instrumentedEngine(t)
	srv, err := ingest.Listen(ingest.Config{TCPAddr: "127.0.0.1:0", UDPAddr: "127.0.0.1:0"},
		func(a alert.Alert) {
			mu.Lock()
			eng.Ingest(a)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterMetrics(reg)
	j.RegisterMetrics(reg)
	h := NewSnapshotter(mu, eng, srv).WithTelemetry(reg).WithJournal(j).WithPprof(true).Handler()

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: ingest + tick under the lock, like skynetd's main loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		dev := hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-b")
		now := epoch.Add(time.Minute)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			eng.Ingest(alert.Alert{
				Source: alert.SourcePing, Type: alert.TypePacketLoss,
				Class: alert.ClassFailure, Time: now, End: now,
				Location: dev, Value: 0.4, Count: 1,
			})
			if i%10 == 0 {
				now = now.Add(10 * time.Second)
				eng.Tick(now)
			}
			mu.Unlock()
		}
	}()

	// UDP traffic through the real listener exercises the ingest
	// counters concurrently with the scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ingest.DialUDP(srv.UDPAddr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		a := alert.Alert{
			Source: alert.SourcePing, Type: alert.TypePacketLoss,
			Class: alert.ClassFailure, Time: epoch, End: epoch,
			Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-c"),
			Value:    0.3, Count: 1,
		}
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = c.Send(&a)
		}
	}()

	// Readers: hammer every endpoint.
	paths := []string{"/metrics", "/api/journal", "/api/stats", "/api/incidents", "/healthz", "/"}
	for _, p := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, _ := get(t, h, path)
				if code != http.StatusOK {
					t.Errorf("%s: %d", path, code)
					return
				}
			}
		}(p)
	}

	time.Sleep(500 * time.Millisecond)
	close(done)
	wg.Wait()

	// The funnel numbers on /metrics and /api/stats come from the same
	// structs; after quiescing they must agree. Quiescing includes the
	// listener: datagrams still queued in it would reach the engine
	// between the two reads below.
	srv.Close()
	mu.Lock()
	raw := eng.RawIngested()
	mu.Unlock()
	var found float64
	for _, m := range reg.Snapshot() {
		if m.Name == "skynet_raw_alerts_total" {
			found = m.Value
		}
	}
	if int(found) != raw {
		t.Errorf("raw counter %v != engine %d", found, raw)
	}
}
