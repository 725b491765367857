// Package skynet is a research-grade reproduction of "SkyNet: Analyzing
// Alert Flooding from Severe Network Failures in Large Cloud
// Infrastructures" (SIGCOMM 2025): an alert-flood analysis system that
// turns the raw output of a dozen heterogeneous network monitoring tools
// into a ranked, human-sized list of incidents.
//
// The package is a facade over the implementation packages:
//
//	Engine / Runner        the preprocessor → locator → evaluator pipeline
//	GenerateTopology       the synthetic hierarchical cloud network
//	NewSimulator           fault injection and network-state simulation
//	NewFleet               the Table 2 monitoring-tool models
//	ListenIngest           UDP/TCP network alert ingestion
//	GenerateTrace/Replay   workload generation and offline replay
//
// Quick start:
//
//	topo := skynet.GenerateTopology(skynet.SmallTopology())
//	runner, _ := skynet.NewRunner(topo, skynet.DefaultEngineConfig(), skynet.DefaultMonitorConfig(), 1)
//	runner.Sim.MustInject(skynet.Fault{Kind: skynet.FaultFiberBundleCut, Location: city, Start: t0})
//	runner.Run(t0, t0.Add(10*time.Minute))
//	for _, in := range runner.Engine.Severe() {
//	    fmt.Println(in.Render())
//	}
package skynet

import (
	"time"

	"skynet/internal/alert"
	"skynet/internal/core"
	"skynet/internal/evaluator"
	"skynet/internal/ftree"
	"skynet/internal/hierarchy"
	"skynet/internal/incident"
	"skynet/internal/ingest"
	"skynet/internal/llmctx"
	"skynet/internal/locator"
	"skynet/internal/metrics"
	"skynet/internal/monitors"
	"skynet/internal/netsim"
	"skynet/internal/preprocess"
	"skynet/internal/scenario"
	"skynet/internal/sop"
	"skynet/internal/topology"
	"skynet/internal/trace"
	"skynet/internal/viz"
	"skynet/internal/zoomin"
)

// ZoomSample is one reachability observation for location zoom-in.
type ZoomSample = zoomin.Sample

// LLMBundle is a token-budgeted diagnostic context for one incident — the
// §9 LLM-integration path.
type LLMBundle = llmctx.Bundle

// LLMConfig bounds an LLM context bundle.
type LLMConfig = llmctx.Config

// Core data model.
type (
	// Alert is the uniform structured alert of §4.1.
	Alert = alert.Alert
	// Source identifies a monitoring data source (Table 2).
	Source = alert.Source
	// Class is an alert's importance tier (§4.2).
	Class = alert.Class
	// Path is a location in the network hierarchy (Figure 5b).
	Path = hierarchy.Path
	// Level is one layer of the hierarchy.
	Level = hierarchy.Level
	// Incident is a cluster of alerts attributed to one root cause.
	Incident = incident.Incident
)

// Alert classes.
const (
	ClassInfo      = alert.ClassInfo
	ClassAbnormal  = alert.ClassAbnormal
	ClassRootCause = alert.ClassRootCause
	ClassFailure   = alert.ClassFailure
)

// Monitoring data sources (Table 2).
const (
	SourcePing               = alert.SourcePing
	SourceTraceroute         = alert.SourceTraceroute
	SourceOutOfBand          = alert.SourceOutOfBand
	SourceTraffic            = alert.SourceTraffic
	SourceNetFlow            = alert.SourceNetFlow
	SourceInternetTelemetry  = alert.SourceInternetTelemetry
	SourceSyslog             = alert.SourceSyslog
	SourceSNMP               = alert.SourceSNMP
	SourceINT                = alert.SourceINT
	SourcePTP                = alert.SourcePTP
	SourceRouteMonitoring    = alert.SourceRouteMonitoring
	SourceModificationEvents = alert.SourceModificationEvents
	SourcePatrolInspection   = alert.SourcePatrolInspection
)

// Pipeline.
type (
	// Engine is the preprocessor → locator → evaluator pipeline.
	Engine = core.Engine
	// EngineConfig aggregates the module configurations.
	EngineConfig = core.Config
	// Runner binds a simulator, monitor fleet, and engine.
	Runner = core.Runner
	// Thresholds is the incident-generation rule (Figure 9's A/B+C/D).
	Thresholds = locator.Thresholds
)

// Substrate.
type (
	// Topology is the synthetic network.
	Topology = topology.Topology
	// TopologyConfig controls generation scale.
	TopologyConfig = topology.Config
	// Device is one network element.
	Device = topology.Device
	// Simulator derives network state from injected faults.
	Simulator = netsim.Simulator
	// Fault is one injected failure.
	Fault = netsim.Fault
	// FaultKind enumerates failure mechanisms.
	FaultKind = netsim.FaultKind
	// Scenario is a failure with ground truth.
	Scenario = scenario.Scenario
	// MonitorConfig tunes the monitoring-tool models.
	MonitorConfig = monitors.Config
	// Fleet is the set of Table 2 monitors.
	Fleet = monitors.Fleet
)

// Fault kinds.
const (
	FaultDeviceDown     = netsim.FaultDeviceDown
	FaultDeviceHardware = netsim.FaultDeviceHardware
	FaultDeviceSoftware = netsim.FaultDeviceSoftware
	FaultLinkCut        = netsim.FaultLinkCut
	FaultFiberBundleCut = netsim.FaultFiberBundleCut
	FaultCongestion     = netsim.FaultCongestion
	FaultRouteError     = netsim.FaultRouteError
	FaultRouteHijack    = netsim.FaultRouteHijack
	FaultModification   = netsim.FaultModification
	FaultPowerFailure   = netsim.FaultPowerFailure
	FaultSilentLoss     = netsim.FaultSilentLoss
	FaultBitFlip        = netsim.FaultBitFlip
	FaultClockDrift     = netsim.FaultClockDrift
)

// Ingestion and tooling.
type (
	// IngestServer receives alerts over TCP/UDP.
	IngestServer = ingest.Server
	// IngestConfig tunes the listeners.
	IngestConfig = ingest.Config
	// OperatorModel prices manual vs SkyNet-assisted mitigation.
	OperatorModel = metrics.OperatorModel
	// VotingGraph is the §7.1 visualization.
	VotingGraph = viz.Graph
)

// ParsePath parses a "Region|City|..." location string.
func ParsePath(s string) (Path, error) { return hierarchy.Parse(s) }

// MustPath builds a Path from segments, panicking on error.
func MustPath(segments ...string) Path { return hierarchy.MustNew(segments...) }

// SmallTopology returns a laptop-scale topology configuration.
func SmallTopology() TopologyConfig { return topology.SmallConfig() }

// ProductionTopology returns a bench-scale (O(10^4) devices) configuration.
func ProductionTopology() TopologyConfig { return topology.ProductionConfig() }

// GenerateTopology builds a deterministic synthetic network.
func GenerateTopology(cfg TopologyConfig) *Topology { return topology.MustGenerate(cfg) }

// LoadTopology reads a topology from a JSON inventory file (the format
// written by SaveTopology / skynet-topo -export).
func LoadTopology(path string) (*Topology, error) { return topology.LoadFile(path) }

// SaveTopology writes a topology as a JSON inventory file.
func SaveTopology(topo *Topology, path string) error { return topo.SaveFile(path) }

// DefaultEngineConfig returns the production pipeline parameters:
// 5-minute alert trees, 2/1+2/5 thresholds, severity filter at 10.
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// DefaultMonitorConfig returns production-like monitoring cadences.
func DefaultMonitorConfig() MonitorConfig { return monitors.DefaultConfig() }

// ProductionThresholds returns the deployed "2/1+2/5" setting.
func ProductionThresholds() Thresholds { return locator.ProductionThresholds() }

// ParseThresholds parses Figure 9's A/B+C/D notation.
func ParseThresholds(s string) (Thresholds, error) { return locator.ParseThresholds(s) }

// NewSimulator creates a fault-injection simulator over a topology.
func NewSimulator(topo *Topology, seed int64) *Simulator { return netsim.New(topo, seed) }

// NewFleet constructs the Table 2 monitor fleet; a non-empty sources list
// restricts it.
func NewFleet(topo *Topology, cfg MonitorConfig, sources ...Source) *Fleet {
	return monitors.NewFleet(topo, cfg, sources...)
}

// NewUserTelemetryMonitor builds the §9 user-side telemetry extension;
// inject it with Fleet.Extend.
func NewUserTelemetryMonitor(topo *Topology, cfg MonitorConfig) monitors.Monitor {
	return monitors.NewUserTelemetryMonitor(topo, cfg)
}

// NewSRTEProbeMonitor builds the §9 SRTE label-probing extension; inject
// it with Fleet.Extend.
func NewSRTEProbeMonitor(topo *Topology, cfg MonitorConfig) monitors.Monitor {
	return monitors.NewSRTEProbeMonitor(topo, cfg)
}

// NewRunner builds the closed simulate→monitor→analyze loop.
func NewRunner(topo *Topology, engineCfg EngineConfig, monCfg MonitorConfig, seed int64, sources ...Source) (*Runner, error) {
	return core.NewRunner(topo, engineCfg, monCfg, seed, sources...)
}

// NewEngine assembles a standalone pipeline (bring your own alerts). The
// classifier handles raw syslog lines; pass the result of
// BootstrapClassifier or train your own.
func NewEngine(cfg EngineConfig, topo *Topology, classifier *ftree.Classifier) *Engine {
	return core.NewEngine(cfg, topo, classifier, nil, nil)
}

// BootstrapClassifier trains the FT-tree syslog classifier on the built-in
// message corpus.
func BootstrapClassifier() (*ftree.Classifier, error) { return preprocess.BootstrapClassifier() }

// ListenIngest starts the UDP/TCP alert listeners, feeding handler.
func ListenIngest(cfg IngestConfig, handler func(Alert)) (*IngestServer, error) {
	return ingest.Listen(cfg, handler)
}

// DefaultIngestConfig returns loopback listener defaults.
func DefaultIngestConfig() IngestConfig { return ingest.DefaultConfig() }

// GenerateTrace produces a synthetic raw-alert trace with ground truth.
func GenerateTrace(opts trace.GenerateOptions) (*trace.Generated, error) { return trace.Generate(opts) }

// DefaultTraceOptions returns a small, fast workload.
func DefaultTraceOptions() trace.GenerateOptions { return trace.DefaultGenerateOptions() }

// ReplayTrace pushes a raw trace through a fresh engine.
func ReplayTrace(alerts []Alert, topo *Topology, cfg EngineConfig) (*Engine, error) {
	return trace.Replay(alerts, topo, cfg, 0)
}

// BuildVotingGraph constructs the §7.1 alert-voting visualization for an
// incident.
func BuildVotingGraph(topo *Topology, in *Incident) *VotingGraph { return viz.Build(topo, in) }

// DefaultOperatorModel returns the Fig. 10c mitigation-time calibration.
func DefaultOperatorModel() OperatorModel { return metrics.DefaultOperatorModel() }

// BuildLLMContext produces a token-budgeted diagnostic bundle for an
// incident, ready to paste into an LLM prompt (§9 future work).
func BuildLLMContext(cfg LLMConfig, in *Incident) LLMBundle { return llmctx.Build(cfg, in) }

// DefaultLLMConfig returns the default context budget.
func DefaultLLMConfig() LLMConfig { return llmctx.DefaultConfig() }

// Rank orders incidents by severity, highest first.
func Rank(ins []*Incident) []*Incident { return evaluator.Rank(ins) }

// NewSOPEngine builds the §7.2 heuristic-rule engine with the default
// device-loss-isolation rule. A nil util means group utilization is
// unknown, and the isolation rule then stands down.
func NewSOPEngine(topo *Topology, exec sop.Executor, util sop.TrafficOracle) *sop.Engine {
	return sop.NewEngine(topo, exec, util)
}

// FiberCutSevere builds the §2.2 war-story scenario.
func FiberCutSevere(topo *Topology, start time.Time) Scenario {
	return scenario.FiberCutSevere(topo, start)
}

// DDoSMultiSite builds the §5.1 multi-site attack scenario set.
func DDoSMultiSite(topo *Topology, n int, start time.Time) []Scenario {
	return scenario.DDoSMultiSite(topo, n, start)
}
