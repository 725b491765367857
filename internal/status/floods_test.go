package status

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"skynet/internal/alert"
	"skynet/internal/flood"
	"skynet/internal/hierarchy"
)

// floodedRecorder drives a flood recorder through one full episode.
func floodedRecorder(t *testing.T) *flood.Recorder {
	t.Helper()
	rec := flood.New(flood.Config{})
	a := alert.Alert{
		Source:   alert.SourcePing,
		Type:     alert.TypePacketLoss,
		Location: hierarchy.MustNew("RG01", "CT01", "LS01", "ST01", "CL01", "dev-a"),
	}
	feed := func(tick uint64, raw int) {
		batch := make([]alert.Alert, 0, raw)
		srcs := make([]alert.Source, 0, raw)
		for i := 0; i < raw; i++ {
			srcs = append(srcs, a.Source)
			batch = append(batch, a)
		}
		rec.ObserveRaw(srcs)
		rec.ObserveTick(epoch.Add(time.Duration(tick)*10*time.Second), tick, batch, nil, nil, nil)
	}
	tick := uint64(0)
	for ; tick < 5; tick++ {
		feed(tick, 1)
	}
	for ; tick < 10; tick++ {
		feed(tick, 100)
	}
	for ; tick < 30 && rec.ClosedCount() == 0; tick++ {
		feed(tick, 0)
	}
	if rec.ClosedCount() != 1 {
		t.Fatal("setup: episode never closed")
	}
	return rec
}

func TestFloodsEndpoints(t *testing.T) {
	eng, mu := loadedEngine(t)
	h := NewSnapshotter(mu, eng, nil).WithFlood(floodedRecorder(t)).Handler()

	code, body := get(t, h, "/api/floods")
	if code != http.StatusOK {
		t.Fatalf("/api/floods = %d: %s", code, body)
	}
	var list []floodSummary
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list does not parse: %v", err)
	}
	if len(list) != 1 || list[0].ID != 1 || list[0].Phase != flood.PhaseClosed {
		t.Fatalf("list = %+v, want one closed episode", list)
	}

	code, body = get(t, h, "/api/floods/1/report")
	if code != http.StatusOK {
		t.Fatalf("/api/floods/1/report = %d: %s", code, body)
	}
	var rep flood.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("report does not parse into flood.Report: %v", err)
	}
	if rep.ID != 1 || rep.RawTotal == 0 || len(rep.Timeline) == 0 {
		t.Fatalf("report lost content: %+v", rep)
	}

	for path, want := range map[string]int{
		"/api/floods/99/report": http.StatusNotFound,
		"/api/floods/xx/report": http.StatusBadRequest,
		"/api/floods/1":         http.StatusNotFound,
	} {
		if code, _ := get(t, h, path); code != want {
			t.Errorf("%s = %d, want %d", path, code, want)
		}
	}
}

func TestFloodsAbsentWithoutRecorder(t *testing.T) {
	eng, mu := loadedEngine(t)
	h := NewSnapshotter(mu, eng, nil).Handler()
	if code, _ := get(t, h, "/api/floods"); code != http.StatusNotFound {
		t.Errorf("/api/floods without recorder = %d, want 404", code)
	}
}
