// Package experiments regenerates every table and figure of the paper's
// evaluation (the E1..E12 and T1 entries indexed in DESIGN.md). Each
// function runs the relevant workload sweep through the simulation harness
// and returns renderable series; the greenbench CLI and the repository's
// benchmark suite are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/metrics"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// Sizes are the homogeneous per-publisher subscription counts
	// (paper: 50..200 step 50 → 2,000..8,000 total).
	Sizes []int
	// HeteroSizes are the heterogeneous Ns values (paper: 50..200).
	HeteroSizes []int
	// Approaches compared in the sweeps (default: all ten).
	Approaches []string
	// Brokers and Publishers size the cluster scenarios (paper: 80/40).
	Brokers    int
	Publishers int
	// ProfileRounds and MeasureRounds size each run's two phases.
	ProfileRounds int
	MeasureRounds int
	// Seed drives all randomness.
	Seed int64
	// Parallelism caps the worker count of CRAM's seed phase
	// (0 = all cores). Results are identical at any setting; only the
	// compute-time columns change.
	Parallelism int
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// Defaults returns the paper-scale configuration.
func Defaults() Config {
	return Config{
		Sizes:         []int{50, 100, 150, 200},
		HeteroSizes:   []int{50, 100, 150, 200},
		Approaches:    sim.Approaches(),
		Brokers:       80,
		Publishers:    40,
		ProfileRounds: 200,
		MeasureRounds: 100,
		Seed:          1,
	}
}

// Quick returns a reduced configuration (~20x faster) preserving every
// experiment's shape; used by the repository's tests and -quick bench runs.
func Quick() Config {
	c := Defaults()
	c.Sizes = []int{20, 40}
	c.HeteroSizes = []int{40, 80}
	c.Brokers = 24
	c.Publishers = 10
	c.ProfileRounds = 100
	c.MeasureRounds = 50
	return c
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Sizes == nil {
		c.Sizes = d.Sizes
	}
	if c.HeteroSizes == nil {
		c.HeteroSizes = d.HeteroSizes
	}
	if c.Approaches == nil {
		c.Approaches = d.Approaches
	}
	if c.Brokers == 0 {
		c.Brokers = d.Brokers
	}
	if c.Publishers == 0 {
		c.Publishers = d.Publishers
	}
	if c.ProfileRounds == 0 {
		c.ProfileRounds = d.ProfileRounds
	}
	if c.MeasureRounds == 0 {
		c.MeasureRounds = d.MeasureRounds
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// scenario builds a cluster scenario for the given per-publisher size.
func (c Config) scenario(name string, subsPerPub int, hetero bool) (*workload.Scenario, error) {
	o := workload.Defaults()
	o.Brokers = c.Brokers
	o.Publishers = c.Publishers
	o.SubsPerPublisher = subsPerPub
	o.Heterogeneous = hetero
	o.Seed = c.Seed
	return workload.Build(name, o)
}

// Sweep holds the results of a homogeneous or heterogeneous sweep: the
// joint data behind experiments E1-E7 (figures plotting one metric vs the
// subscription count per approach).
type Sweep struct {
	Hetero     bool
	Sizes      []int
	Approaches []string
	// Results maps approach → size → result.
	Results map[string]map[int]*sim.Result
}

// runSweep executes every (approach, size) cell.
func (c Config) runSweep(hetero bool, sizes []int) (*Sweep, error) {
	sw := &Sweep{
		Hetero:     hetero,
		Sizes:      sizes,
		Approaches: c.Approaches,
		Results:    make(map[string]map[int]*sim.Result),
	}
	kind := "homogeneous"
	if hetero {
		kind = "heterogeneous"
	}
	for _, size := range sizes {
		sc, err := c.scenario(fmt.Sprintf("cluster-%s-%d", kind, size), size, hetero)
		if err != nil {
			return nil, err
		}
		for _, ap := range c.Approaches {
			started := time.Now()
			res, err := sim.Run(sim.ExperimentConfig{
				Scenario:      sc,
				Approach:      ap,
				ProfileRounds: c.ProfileRounds,
				MeasureRounds: c.MeasureRounds,
				Seed:          c.Seed,
				Core:          core.Config{Parallelism: c.Parallelism},
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s at size %d: %w", ap, size, err)
			}
			if sw.Results[ap] == nil {
				sw.Results[ap] = make(map[int]*sim.Result)
			}
			sw.Results[ap][size] = res
			c.logf("%s size=%d %s: brokers=%d rate/pool=%.1f hops=%.2f delay=%.1fms (%.1fs)",
				kind, size, ap, res.AllocatedBrokers, res.AvgRatePerPoolBroker,
				res.AvgHops, res.AvgDelayMs, time.Since(started).Seconds())
		}
	}
	return sw, nil
}

// RunHomogeneous runs the homogeneous cluster sweep (E1-E4, E7 data).
func RunHomogeneous(cfg Config) (*Sweep, error) {
	c := cfg.withDefaults()
	return c.runSweep(false, c.Sizes)
}

// RunHeterogeneous runs the heterogeneous cluster sweep (E5-E6 data).
func RunHeterogeneous(cfg Config) (*Sweep, error) {
	c := cfg.withDefaults()
	return c.runSweep(true, c.HeteroSizes)
}

// metric extracts one scalar from a result.
type metric struct {
	name   string
	header string
	get    func(*sim.Result) string
}

var sweepMetrics = map[string]metric{
	"msgrate": {"avg broker message rate", "msgs/s per pool broker",
		func(r *sim.Result) string { return metrics.F1(r.AvgRatePerPoolBroker) }},
	"brokers": {"allocated brokers", "brokers",
		func(r *sim.Result) string { return metrics.I(r.AllocatedBrokers) }},
	"hops": {"average hop count", "hops",
		func(r *sim.Result) string { return metrics.F2(r.AvgHops) }},
	"delay": {"average delivery delay", "ms",
		func(r *sim.Result) string { return metrics.F1(r.AvgDelayMs) }},
	"compute": {"reconfiguration computation time", "time",
		func(r *sim.Result) string { return metrics.Dur(r.ComputeTime) }},
}

// Table renders one metric of the sweep as a series: one row per approach,
// one column per size.
func (s *Sweep) Table(id, metricName string) (*metrics.Series, error) {
	m, ok := sweepMetrics[metricName]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown metric %q", metricName)
	}
	kind := "homogeneous"
	if s.Hetero {
		kind = "heterogeneous"
	}
	out := &metrics.Series{
		ID:     id,
		Title:  fmt.Sprintf("%s vs subscriptions per publisher (%s cluster)", m.name, kind),
		Header: []string{"approach"},
	}
	for _, size := range s.Sizes {
		out.Header = append(out.Header, fmt.Sprintf("Ns=%d (%s)", size, m.header))
	}
	for _, ap := range s.Approaches {
		row := []string{ap}
		for _, size := range s.Sizes {
			res := s.Results[ap][size]
			if res == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, m.get(res))
		}
		out.AddRow(row...)
	}
	return out, nil
}

// Summary builds the T1 table: reductions vs MANUAL at the largest size.
func (s *Sweep) Summary(id string) (*metrics.Series, error) {
	size := s.Sizes[len(s.Sizes)-1]
	base, ok := s.Results[sim.ApproachManual]
	if !ok || base[size] == nil {
		return nil, fmt.Errorf("experiments: summary needs a MANUAL run at size %d", size)
	}
	b := base[size]
	out := &metrics.Series{
		ID:    id,
		Title: fmt.Sprintf("reductions vs MANUAL at Ns=%d (%d subscriptions)", size, b.Subscriptions),
		Header: []string{"approach", "brokers", "broker reduction",
			"msg-rate reduction", "hop reduction", "delay reduction"},
		Notes: []string{
			"abstract claims: up to 92% message-rate and 91% broker reduction (lightest workloads)",
		},
	}
	for _, ap := range s.Approaches {
		r := s.Results[ap][size]
		if r == nil {
			continue
		}
		out.AddRow(ap,
			metrics.I(r.AllocatedBrokers),
			metrics.Reduction(float64(b.AllocatedBrokers), float64(r.AllocatedBrokers)),
			metrics.Reduction(b.AvgRatePerPoolBroker, r.AvgRatePerPoolBroker),
			metrics.Reduction(b.AvgHops, r.AvgHops),
			metrics.Reduction(b.AvgDelayMs, r.AvgDelayMs),
		)
	}
	return out, nil
}
