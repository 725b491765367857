package main

// Alert pools. This file and layers.go are the only ones that import
// skynet/internal/*: everything the end-to-end half sends is rendered
// here into the two wire formats, so the sender, the SSE client and the
// checks depend only on bytes, CLI flags and the HTTP feed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"skynet/internal/alert"
	"skynet/internal/hierarchy"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/scenario"
	"skynet/internal/topology"
)

// Sentinel stamps mark where an encoded payload's two time fields sit.
// Both render at full width in either format (30-byte RFC3339Nano, 19
// digit unix nanos), which is the width stampJSON/stampWire write back.
var (
	sentinelTime = time.Date(2002, 2, 3, 4, 5, 6, 123456789, time.UTC)
	sentinelEnd  = time.Date(2003, 3, 4, 5, 6, 7, 987654321, time.UTC)
)

// encodePayload renders a once into a JSON line and a pipe datagram and
// records where the time fields sit in each.
func encodePayload(a alert.Alert) (payload, error) {
	a.ID = 0
	a.Time, a.End = sentinelTime, sentinelEnd
	js, err := json.Marshal(&a)
	if err != nil {
		return payload{}, fmt.Errorf("encode %v: %w", a.Key(), err)
	}
	js = append(js, '\n')
	wire := alert.AppendWire(nil, &a)
	p := payload{json: js, wire: wire}
	find := func(buf []byte, t time.Time, format func(time.Time) []byte) (int, error) {
		want := format(t)
		i := bytes.Index(buf, want)
		if i < 0 || bytes.Contains(buf[i+1:], want) {
			return 0, fmt.Errorf("encode %v: time field %s not found exactly once", a.Key(), want)
		}
		return i, nil
	}
	jsonFmt := func(t time.Time) []byte { return stampJSON(make([]byte, jsonStampLen), t) }
	wireFmt := func(t time.Time) []byte { return stampWire(make([]byte, wireStampLen), t) }
	if p.jsonTime, err = find(js, sentinelTime, jsonFmt); err != nil {
		return payload{}, err
	}
	if p.jsonEnd, err = find(js, sentinelEnd, jsonFmt); err != nil {
		return payload{}, err
	}
	if p.wireTime, err = find(wire, sentinelTime, wireFmt); err != nil {
		return payload{}, err
	}
	if p.wireEnd, err = find(wire, sentinelEnd, wireFmt); err != nil {
		return payload{}, err
	}
	return p, nil
}

func encodeAll(alerts []alert.Alert) ([]payload, error) {
	out := make([]payload, len(alerts))
	for i := range alerts {
		p, err := encodePayload(alerts[i])
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// floodSimWindow is how much simulated time of the fibre cut makes the
// flood pool: long enough that every Table 2 source has reported.
const floodSimWindow = 6 * time.Minute

// buildFloodPool simulates scenario.FiberCutSevere on the small topology
// under the full monitor fleet. The small topology's paths are a subset
// of the production tree skynetd runs, and it simulates in about half a
// second where the production-scale fleet takes half a minute.
func buildFloodPool() (alerts []payload, cutCity string, err error) {
	topo, err := topology.Generate(topology.SmallConfig())
	if err != nil {
		return nil, "", err
	}
	start := time.Date(2024, 7, 2, 11, 0, 0, 0, time.UTC)
	sc := scenario.FiberCutSevere(topo, start)
	sim := netsim.New(topo, 1)
	if err := sc.Inject(sim); err != nil {
		return nil, "", err
	}
	cfg := monitors.DefaultConfig()
	raw, err := monitors.NewFleet(topo, cfg).Run(sim, start, start.Add(floodSimWindow), cfg.PingInterval)
	if err != nil {
		return nil, "", err
	}
	alerts, err = encodeAll(raw)
	return alerts, sc.Truth[0].String(), err
}

// torsByCluster lists the production topology's ToR paths grouped by
// cluster, clusters in topology order, for the regions that pass keep.
func torsByCluster(topo *topology.Topology, keep func(region string) bool) [][]hierarchy.Path {
	index := map[hierarchy.Path]int{}
	var out [][]hierarchy.Path
	for i := range topo.Devices {
		d := &topo.Devices[i]
		if d.Role != topology.RoleToR || !keep(d.Path.Segment(hierarchy.LevelRegion)) {
			continue
		}
		j, ok := index[d.Attach]
		if !ok {
			j = len(out)
			index[d.Attach] = j
			out = append(out, nil)
		}
		out[j] = append(out[j], d.Path)
	}
	return out
}

// probeRegion holds nothing but probes, so no probe is ever adjacent to
// the background load.
const probeRegion = "RG04"

func failureAlerts(loc hierarchy.Path) []alert.Alert {
	mk := func(typ string, value float64) alert.Alert {
		return alert.Alert{Source: alert.SourcePing, Type: typ, Class: alert.Classify(alert.SourcePing, typ),
			Location: loc, Value: value, Count: 1}
	}
	// 0.5 loss is well above the preprocessor's sporadic-loss filter.
	return []alert.Alert{mk(alert.TypePacketLoss, 0.5), mk(alert.TypeEndToEndICMP, 1)}
}

// buildProbeDevices returns one in eight ToRs of the probe region (two
// per cluster, like the wide pool, so no two are adjacent), each with the
// two failure-class alerts that make it an incident of its own (the
// locator's 2-failure-types clause).
func buildProbeDevices(topo *topology.Topology) ([]probeDevice, error) {
	var out []probeDevice
	var locs []hierarchy.Path
	for _, tors := range torsByCluster(topo, func(r string) bool { return r == probeRegion }) {
		for i := 0; i < len(tors); i += 8 {
			loc := tors[i]
			for _, other := range locs {
				if topo.Adjacent(loc, other) {
					return nil, fmt.Errorf("probe devices: %s and %s are adjacent", loc, other)
				}
			}
			locs = append(locs, loc)
			ps, err := encodeAll(failureAlerts(loc))
			if err != nil {
				return nil, err
			}
			out = append(out, probeDevice{root: loc.String(), alerts: ps})
		}
	}
	return out, nil
}

// wideTypesPerDevice is the stream count each wide-pool device carries.
const wideTypesPerDevice = 6

// buildWidePool returns one in eight ToRs of the three non-probe regions
// (two per 16-ToR cluster; ToRs link only to their cluster's routers, so
// no two are adjacent), each with six alert types from four sources, two
// of them failure-class: every device is its own incident.
func buildWidePool(topo *topology.Topology) (alerts []payload, roots []string, err error) {
	var locs []hierarchy.Path
	for _, tors := range torsByCluster(topo, func(r string) bool { return r != probeRegion }) {
		for i := 0; i < len(tors); i += 8 {
			locs = append(locs, tors[i])
		}
	}
	for i, loc := range locs {
		for _, other := range locs[:i] {
			if topo.Adjacent(loc, other) {
				return nil, nil, fmt.Errorf("wide pool: %s and %s are adjacent", loc, other)
			}
		}
		mk := func(src alert.Source, typ string, value float64) alert.Alert {
			return alert.Alert{Source: src, Type: typ, Class: alert.Classify(src, typ),
				Location: loc, Value: value, Count: 1}
		}
		ps, err := encodeAll(append(failureAlerts(loc),
			mk(alert.SourceOutOfBand, alert.TypeDeviceInaccessible, 0),
			mk(alert.SourceOutOfBand, alert.TypeHighCPU, 0.97),
			mk(alert.SourceSNMP, alert.TypeCRCError, 120),
			mk(alert.SourceTraffic, alert.TypeTrafficCongestion, 0.93)))
		if err != nil {
			return nil, nil, err
		}
		alerts = append(alerts, ps...)
		roots = append(roots, loc.String())
	}
	return alerts, roots, nil
}

// buildPools generates everything a workload sends. Pools do not depend
// on the seed; the plan's order, probe-device order and late share do.
func buildPools(wide bool) (*pools, error) {
	topo, err := topology.Generate(topology.ProductionConfig())
	if err != nil {
		return nil, err
	}
	p := &pools{}
	if p.probes, err = buildProbeDevices(topo); err != nil {
		return nil, err
	}
	if wide {
		p.alerts, p.roots, err = buildWidePool(topo)
		return p, err
	}
	var city string
	p.alerts, city, err = buildFloodPool()
	p.roots = []string{city}
	return p, err
}
