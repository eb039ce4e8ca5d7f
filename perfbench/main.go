// Command perfbench is the repository's end-to-end benchmark. It builds one
// workload from a seed, measures it for a fixed number of seconds in rounds
// of fixed work, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh from the root of a checkout, which builds it first.
// README.md records why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// A run sets its workload up in gaps: one before the first round and one
// between every two rounds, so the set-ups sample the host over the whole
// run as the rounds do. A gap holds at least setupsPerGap set-ups and lasts
// at least setupGapMin. setup_s is the median over every set-up of the run;
// the rounds use the workload of the first.
const (
	setupsPerGap = 2
	setupGapMin  = 50 * time.Millisecond
	// setupGarbageMax is the most a gap's set-ups may allocate before the
	// next one starts from a collected heap: a fraction of the runtime's
	// 4 MB minimum heap goal, so it cannot start a collection on its own.
	setupGarbageMax = 1 << 20
)

// workloadNames lists the workloads in the order an unnamed run executes
// them.
var workloadNames = []string{"reproduce_quick", "serve_campaign", "advise_cold", "schedule_stream"}

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	workers int
	tr      *tracer // nil in untraced runs
}

// A workload is measured in rounds: fixed units of work, each preceded by
// untimed preparation.
type workload interface {
	// prepare readies the next round; its time is not measured.
	prepare(tr *tracer) error
	// round runs one unit of work. tr is nil in untraced rounds.
	round(tr *tracer) (roundOut, error)
	// repeatFrac is the share of the run's ops whose input occurred
	// earlier in the run (input.repeat_frac; traced runs only).
	repeatFrac() float64
}

// roundOut is what one round did.
type roundOut struct {
	ops, failed int
	// energyJ is the simulated energy of the round's answered ops.
	energyJ  float64
	answered int
	// problems lists outputs found wrong.
	problems []string
	// verify, if set, checks the round's outputs after its time is taken,
	// returning the failed ops it found and what was wrong.
	verify func() (failed int, problems []string)
}

func setupWorkload(name string, e env) (workload, error) {
	switch name {
	case "reproduce_quick":
		return setupReproduce(e)
	case "serve_campaign":
		return setupServe(e)
	case "advise_cold":
		return setupAdvise(e)
	case "schedule_stream":
		return setupSchedule(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "", "workload to run (empty: every workload, each in its own process)")
	seed := flag.Uint64("seed", 2023, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	commit := flag.String("commit", "unknown", "commit under test, for the provenance line")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll())
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll re-runs this binary once per workload with the same flags, so
// each workload gets a process (and a peak RSS) of its own.
func runAll() int {
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(os.Args[0], append([]string{"--workload", w}, os.Args[1:]...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// roundRecord is the measured cost of one round.
type roundRecord struct {
	out    roundOut
	wall   time.Duration
	cost   usage
	traced bool
}

// busy is the round's wall time less what the hypervisor stole from it.
func (r roundRecord) busy() time.Duration { return unstolen(r.wall, r.cost.cpu, r.cost.steal) }

func run(name string, seed uint64, seconds int, traced bool, commit string) (*result, error) {
	workers := runtime.NumCPU()
	clk := newClock()
	var tr *tracer
	if traced {
		tr = newTracer(clk)
	}

	var (
		wl     workload
		setups []float64
	)
	setUpGap := func() error {
		gap0, n, u0 := clk.now(), 0, readCPU()
		var walls []time.Duration
		var collected uint64
		for ; n < setupsPerGap || clk.now()-gap0 < setupGapMin; n++ {
			// Like every round, a gap's first set-up and any set-up after
			// more than setupGarbageMax of garbage start from a collected
			// heap, so garbage left by the one before does not land in
			// their time.
			if n == 0 || allocatedBytes()-collected > setupGarbageMax {
				runtime.GC()
				collected = allocatedBytes()
			}
			tr.begin(phaseSetup)
			t0 := clk.now()
			w, err := setupWorkload(name, env{seed: seed, workers: workers, tr: tr})
			if err != nil {
				return fmt.Errorf("%s set-up: %w", name, err)
			}
			walls = append(walls, clk.now()-t0)
			tr.end()
			if wl == nil {
				wl = w
			}
		}
		// The steal counter's ticks are too coarse to read one set-up's
		// own steal. A set-up of a tick or more spans many steal episodes
		// and loses about the gap's stolen share of its time, so it takes
		// that share out. A shorter one is almost never hit by an episode,
		// and the rare one that is lands far above the median, so it keeps
		// its wall time.
		u1 := readCPU()
		for _, wall := range walls {
			if wall >= stealTick {
				wall = unstolen(wall, u1.cpu-u0.cpu, u1.steal-u0.steal)
			}
			setups = append(setups, wall.Seconds())
		}
		fmt.Printf("set-ups %d median %.6gs steal %.3fs of %.3fs busy\n", n, median(setups[len(setups)-n:]),
			(u1.steal - u0.steal).Seconds(), (u1.cpu - u0.cpu + u1.steal - u0.steal).Seconds())
		return nil
	}

	// Traced runs alternate untraced and traced rounds, so the traced
	// throughput has an untraced reference measured alongside it.
	minRounds := 1
	if traced {
		minRounds = 2
	}
	var rounds []roundRecord
	budget := time.Duration(seconds) * time.Second
	start := clk.now()
	var longest time.Duration
	for {
		r0 := clk.now()
		if err := setUpGap(); err != nil {
			return nil, err
		}
		isTraced := traced && len(rounds)%2 == 1
		var rt *tracer
		if isTraced {
			rt = tr
			rt.begin(phaseRound)
		}
		if err := wl.prepare(rt); err != nil {
			if errors.Is(err, errExhausted) && len(rounds) >= minRounds {
				fmt.Printf("run ended early: %v\n", err)
				break
			}
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runtime.GC()
		u0 := readUsage()
		t0 := clk.now()
		out, err := wl.round(rt)
		wall := clk.now() - t0
		u1 := readUsage()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rt.end()
		if out.verify != nil {
			failed, problems := out.verify()
			out.failed += failed
			out.problems = append(out.problems, problems...)
			out.verify = nil // let the round's outputs go
		}
		rec := roundRecord{
			out:  out,
			wall: wall,
			cost: usage{cpu: u1.cpu - u0.cpu, steal: u1.steal - u0.steal,
				allocs: u1.allocs - u0.allocs, bytes: u1.bytes - u0.bytes},
			traced: isTraced,
		}
		rounds = append(rounds, rec)
		fmt.Printf("round %d wall %.6fs steal %.2fs unstolen %.6fs cpu %.6fs ops %d failed %d traced %v\n",
			len(rounds), wall.Seconds(), rec.cost.steal.Seconds(), rec.busy().Seconds(), rec.cost.cpu.Seconds(),
			out.ops, out.failed, isTraced)
		// Start another round only while the budget is not spent and the
		// longest set-up gap and round so far would end within half a
		// round of it.
		longest = max(longest, clk.now()-r0)
		if len(rounds) >= minRounds && clk.now()-start+longest/2 > budget {
			break
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	var problems []string
	res.Attempted, res.Failed, problems = tally(rounds)
	for i, p := range problems {
		if i == 10 {
			fmt.Printf("problem: ... %d more\n", len(problems)-i)
			break
		}
		fmt.Printf("problem: %s\n", p)
	}
	res.Correct = len(problems) == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no ops attempted", name)
	}

	printProvenance(name, seed, workers, commit, rounds)
	fmt.Printf("failed_frac %.6g (%d of the first round's %d ops)\n", failedFrac(res.Failed, res.Attempted), res.Failed, res.Attempted)
	if traced {
		return res, tr.report(res, wl, rounds)
	}
	return res, endToEnd(res, rounds, setups)
}

// tally gives the run's attempted and failed ops and every wrong output it
// found. The ops counted are the first round's: its inputs follow from the
// seed alone, so attempted and failed repeat exactly for a seed however
// many rounds the host's speed lets into the run. Later rounds are checked
// as well; one that fails another number of ops than the first computed
// something else from the same seed, which is a wrong output.
func tally(rounds []roundRecord) (attempted, failed int, problems []string) {
	first := rounds[0].out
	for i, r := range rounds {
		problems = append(problems, r.out.problems...)
		if r.out.failed != first.failed {
			problems = append(problems, fmt.Sprintf("round %d failed %d ops, the first round %d", i+1, r.out.failed, first.failed))
		}
	}
	return first.ops, first.failed, problems
}

// endToEnd fills res with every end-to-end metric of an untraced run.
func endToEnd(res *result, rounds []roundRecord, setups []float64) error {
	var tput, cpu, allocs, mb []float64
	for _, r := range rounds {
		tput = append(tput, float64(r.out.ops)/r.busy().Seconds())
		cpu = append(cpu, r.cost.cpu.Seconds())
		allocs = append(allocs, float64(r.cost.allocs))
		mb = append(mb, float64(r.cost.bytes)/1e6)
	}
	energy, err := energyPerOp(rounds)
	if err != nil {
		return err
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unit} }
	put("throughput", "ops/s", median(tput))
	put("cpu_s", "s", median(cpu))
	put("setup_s", "s", median(setups))
	put("allocs", "count", median(allocs))
	put("alloc_mb", "MB", median(mb))
	put("max_rss_mb", "MB", maxRSSMB())
	put("energy_per_op_j", "J", energy)
	fmt.Printf("set-ups %d over the run\n", len(setups))
	for _, name := range endToEndNames {
		m := res.Metrics[name]
		fmt.Printf("%-16s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return nil
}

// energyPerOp is the simulated energy per answered op of the run's first
// round. The first round's inputs follow from the seed alone, so the value
// does not change with the number of rounds that fit in the run.
func energyPerOp(rounds []roundRecord) (float64, error) {
	first := rounds[0].out
	if first.answered == 0 {
		return 0, errors.New("no answered ops to attribute energy to")
	}
	return first.energyJ / float64(first.answered), nil
}

// endToEndNames is the order the end-to-end metrics print in.
var endToEndNames = []string{"throughput", "cpu_s", "setup_s", "allocs", "alloc_mb", "max_rss_mb", "energy_per_op_j"}

// printProvenance records what produced the numbers: a single-core run
// must never pass for a parallel one.
func printProvenance(name string, seed uint64, workers int, commit string, rounds []roundRecord) {
	ops := 0
	for _, r := range rounds {
		ops += r.out.ops
	}
	fmt.Printf("workload %s seed %d rounds %d ops %d workers %d gomaxprocs %d nproc %d\n",
		name, seed, len(rounds), ops, workers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("cpu %q go %s commit %s\n", cpuModel(), goVersion(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func goVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return runtime.Version()
}
