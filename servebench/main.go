// Command servebench is ampserved's end-to-end benchmark. It boots the
// ampserved binary with its default backends, drives one of three
// closed-loop workloads over two loopback TCP connections, checks every
// reply against a model, and prints the metrics by name with units; the
// last line of its output is one JSON object with the result.
//
//	servebench -server BIN -workload mix-pipelined -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the same workload with window spans recorded on alternate slices, then
// replays the workload's inputs through each layer in process, and
// reports the per-layer metrics. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Run shape. Each setup boots a fresh server and preloads it; setup_s is
// the median. The warm-up is discarded; the timed window is cut into
// slices, and the throughput, latency and CPU metrics are medians over the
// slices with the least host steal (see quietest).
const (
	conns  = 2
	setups = 7
	warmup = 1500 * time.Millisecond
	slice  = 250 * time.Millisecond
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "mix-pipelined | map-read-d1 | txn-transfer")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "ampserved binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for snapshots and trace files")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.server == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// rig is a booted server with its control and load connections.
type rig struct {
	p    *proc
	ctl  *ctlConn
	load [conns]*ctlConn
}

func (r *rig) stop() error {
	r.ctl.Close()
	for _, c := range r.load {
		if c != nil {
			c.Close()
		}
	}
	return r.p.stop()
}

// setUp boots a server, waits for PING, opens the load connections and
// sends each its preload lines.
func setUp(cfg config, snapDir string, preload [conns][][]byte) (*rig, error) {
	p, err := boot(cfg.server, snapDir)
	if err != nil {
		return nil, err
	}
	r := &rig{p: p}
	if r.ctl, err = dial(p.addr); err != nil {
		p.stop()
		return nil, err
	}
	if pong, err := r.ctl.do("PING"); err != nil || pong[0] != "PONG" {
		r.stop()
		return nil, fmt.Errorf("PING: %v %v", pong, err)
	}
	for i := range r.load {
		if r.load[i], err = dial(p.addr); err != nil {
			r.stop()
			return nil, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := range r.load {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fails, err := r.load[c].pipeline(preload[c], func(reply []byte) bool { return string(reply) == "1" })
			if err == nil && fails > 0 {
				err = fmt.Errorf("preload: %d HSETs did not answer 1", fails)
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// preloadLines renders map-read-d1's keys (each connection its own half)
// or txn-transfer's accounts; mix-pipelined starts empty.
func preloadLines(cfg config) (lines [conns][][]byte) {
	for c := range lines {
		switch cfg.workload {
		case "map-read-d1":
			for i := int32(c); i < mapKeys; i += conns {
				b := mapKey([]byte("HSET "), i)
				lines[c] = append(lines[c], strconv.AppendInt(append(b, ' '), mapInitial(cfg.seed, i), 10))
			}
		case "txn-transfer":
			for i := int32(c); i < txnAccounts; i += conns {
				b := acctKey([]byte("HSET "), i)
				lines[c] = append(lines[c], strconv.AppendInt(append(b, ' '), txnStartBal, 10))
			}
		}
	}
	return lines
}

func run(cfg config) (*result, error) {
	sp, err := findSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	var wins [conns][]window
	for c := range wins {
		wins[c] = sp.gen(cfg.seed, c)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	snapDir, err := os.MkdirTemp(cfg.workdir, "snap-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	// Set up several times; the last server stays up for the run.
	preload := preloadLines(cfg)
	var setupS []float64
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		t := time.Now()
		if r, err = setUp(cfg, snapDir, preload); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer r.stop()

	ld, err := drive(cfg, sp, r, wins)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	var loadErr error
	for _, cl := range ld.clients {
		res.Attempted += cl.ops
		res.Failed += cl.fails
		if cl.err != nil {
			loadErr = cl.err
			fmt.Println("load failed:", cl.err)
		}
	}
	if cfg.workload == "txn-transfer" && loadErr == nil {
		if err := checkBalances(r.ctl); err != nil {
			fmt.Println("invariant failed:", err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && loadErr == nil

	tl := ld.timeline(sp.depth, cfg.trace)
	quiet := quietest(tl.untraced)
	quietSamples := 0
	for _, q := range quiet {
		quietSamples += q.samples
	}
	first, last := ld.samples[0], ld.samples[len(ld.samples)-1]
	steal, idle := first.host.pct(last.host)
	fmt.Printf("workload %s seed %d: %d windows of %d ops in %.2fs, latency samples %d (%d in the %d quietest of %d slices), server cpu %.2fs, host steal %.1f%% idle %.1f%%\n",
		cfg.workload, cfg.seed, tl.windows, sp.depth, float64(last.t-first.t)/1e9, len(tl.rtts), quietSamples, len(quiet),
		len(tl.untraced), float64(last.ticks-first.ticks)*clockTick.Seconds(), steal, idle)

	if !cfg.trace {
		rss, err := peakRSSMB(r.p.pid())
		if err != nil {
			return nil, err
		}
		put := func(name, unit string, v float64) {
			res.Metrics[name] = metric{v, unit}
			fmt.Printf("metric %-22s %14.4f %s\n", name, v, unit)
		}
		put("setup_s", "s", medianOf(setupS))
		put("throughput_ops_s", "ops/s", medianBy(quiet, func(s sliceStat) float64 { return s.tput }))
		put("latency_p50_us", "us", medianBy(quiet, func(s sliceStat) float64 { return s.p50 }))
		put("latency_p90_us", "us", medianBy(quiet, func(s sliceStat) float64 { return s.p90 }))
		put("server_cpu_us_per_op", "us", medianBy(quiet, func(s sliceStat) float64 { return s.cpuPerOp }))
		put("server_rss_mb", "MB", rss)
		// Not gated: it reads 0 when the server is correct, and the JSON
		// carries it as failed/attempted.
		fmt.Printf("metric %-22s %14.4f %s\n", "fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
		return res, nil
	}

	// Traced run: per-layer metrics.
	lm := ld.windowLayers(tl)
	t := time.Now()
	if rep, err := r.ctl.do("SAVE"); err != nil || rep[0] != "OK" {
		return nil, fmt.Errorf("SAVE: %v %v", rep, err)
	}
	lm["snapshot.save_ms"] = float64(time.Since(t)) / 1e6
	rp := &replayer{epoch: ld.epoch, trace: 1 << 63}
	for k, v := range rp.layerMetrics(replayIn(cfg, wins, tl.rtts)) {
		lm[k] = v
	}
	groups := [][]span{ld.clients[0].spans, ld.clients[1].spans, rp.spans}
	self, counts := selfTimes(groups...)
	for n, name := range spanNames {
		lm["span."+name+".self_us"] = self[n]
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, groups...); err != nil {
		return nil, err
	}
	fmt.Printf("trace: 1 in %d windows on odd slices, %d window spans, %d replay spans, written to %s\n",
		traceEvery, len(groups[0])+len(groups[1]), len(rp.spans), path)
	for n, name := range spanNames {
		fmt.Printf("self   %-18s %10.3f us mean over %d spans\n", name, self[n], counts[n])
	}
	names := make([]string, 0, len(lm))
	for k := range lm {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.Metrics[k] = metric{lm[k], layerUnit(k)}
		fmt.Printf("layer  %-34s %14.4f %s\n", k, lm[k], layerUnit(k))
	}
	return res, nil
}

// checkBalances reads every account and checks that transfers kept the
// total where the preload put it.
func checkBalances(c *ctlConn) error {
	lines := make([][]byte, txnAccounts)
	for i := range lines {
		lines[i] = acctKey([]byte("HGET "), int32(i))
	}
	var sum int64
	bad := 0
	if _, err := c.pipeline(lines, func(reply []byte) bool {
		v, ok := atoi(reply)
		if !ok {
			bad++
		}
		sum += v
		return ok
	}); err != nil {
		return err
	}
	if want := int64(txnAccounts * txnStartBal); bad > 0 || sum != want {
		return fmt.Errorf("balance sum %d, want %d (%d unreadable)", sum, want, bad)
	}
	return nil
}

// replayIn gathers the replay inputs for the workload.
func replayIn(cfg config, wins [conns][]window, rtts []int64) replayInputs {
	in := replayInputs{rtts: rtts}
	if len(in.rtts) == 0 {
		in.rtts = []int64{1000}
	}
	for c := 0; c < conns; c++ {
		in.lines = append(in.lines, splitLines(wins[c])...)
		in.mix = append(in.mix, mixOps(cfg.seed, c, mixWindows*mixDepth)...)
	}
	var universe int
	switch cfg.workload {
	case "map-read-d1":
		universe = mapKeys
		in.keys = keyNames(mapKeys, mapKey)
		for i := range in.keys {
			in.vals = append(in.vals, mapInitial(cfg.seed, int32(i)))
		}
	case "txn-transfer":
		universe = txnAccounts
		in.keys = keyNames(txnAccounts, acctKey)
		in.vals = make([]int64, txnAccounts)
		for i := range in.vals {
			in.vals[i] = txnStartBal
		}
	default:
		universe = mixKeys
		in.keys = keyNames(mixKeys, mixKeyName)
		in.vals = make([]int64, mixKeys)
		for i := int64(0); i < mixKeys; i += 2 {
			in.setElems = append(in.setElems, i)
		}
	}
	for c := 0; c < conns; c++ {
		for _, w := range wins[c] {
			for _, o := range w.ops {
				switch o.kind {
				case kSet, kGet, kDel, kHGet, kHSet:
					in.reads = append(in.reads, o.key)
				case kXfer:
					in.reads = append(in.reads, o.key, o.key2)
					in.xfers = append(in.xfers, o)
				}
			}
		}
	}
	if in.xfers == nil {
		// Transfers over the workload's own keys.
		for _, o := range txnOps(cfg.seed, 0, txnWindows*txnDepth) {
			o.key, o.key2 = o.key*int32(universe/txnAccounts), o.key2*int32(universe/txnAccounts)
			in.xfers = append(in.xfers, o)
		}
	}
	return in
}

// layerUnit derives a per-layer metric's unit from its name's suffix.
func layerUnit(name string) string {
	for _, u := range [...]struct{ suffix, unit string }{
		{"_ns", "ns"}, {"_ns_per_op", "ns"}, {"_ns_per_entry", "ns"}, {"_us", "us"}, {"_us_p50", "us"},
		{"_ms", "ms"}, {"_pct", "%"}, {"_ratio", "ratio"}, {"bytes_per_op", "B"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
