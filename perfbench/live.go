package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"planet/internal/httpapi"
	"planet/internal/mdcc"
	"planet/internal/obs"
	"planet/internal/txn"
)

// live-trio shape: three planetd -realnet processes on loopback, each with
// an on-disk WAL and no injected network delay, driven by one open-loop
// generator with at most GOMAXPROCS requests in flight.
const (
	liveRate       = 300 // offered requests per second in the measured window
	liveBoots      = 15  // trio boots per run; setup_s is their median
	liveWarmup     = time.Second
	liveTopUp      = 1_000_000 // added to every acct-* key before the window
	liveAccounts   = 8         // acct-1..acct-8, seeded by planetd at 100 each
	liveSeedAcct   = 100
	liveWaitBound  = 2 * time.Second        // server-side wait per write
	liveReadLag    = 250 * time.Millisecond // reads target keys committed at least this long before they are due
	liveSLO        = 50 * time.Millisecond  // commit p99 bound for max_rate_at_slo
	liveLadderStep = 1500 * time.Millisecond
)

// liveLadder is the rate ladder max_rate_at_slo climbs in traced runs.
var liveLadder = []float64{600, 1200, 1800, 2400, 3000, 3600}

var liveRegions = []string{"eu-west", "us-east", "us-west"}

// opKind is one request type of the live mix.
type opKind int

const (
	opLocalRead opKind = iota
	opQuorumRead
	opSet
	opTransfer
)

// liveOp is one scheduled request.
type liveOp struct {
	due    time.Duration // offset from the window start
	kind   opKind
	node   int
	key    string // set key
	value  []byte // set value
	from   string // transfer accounts
	to     string
	amount int64
	pick   float64 // which already-written key a read targets
}

// liveSchedule draws a window's requests from the seed: rate*span
// arrivals placed as a Poisson process conditioned on that count (sorted
// uniform times), shuffled over an exact mix, each aimed at a uniformly
// chosen node. Half the requests read and half write, the read/update split
// of YCSB's core workload A (Cooper et al., SoCC 2010); neither the PLANET
// and MDCC papers nor the repo's drivers give a mix with reads. Each half
// is split evenly between its two request kinds: local and quorum reads,
// single-key sets of fresh keys (which grow the readable key set) and
// two-key transfers between acct-* keys. Fixing the count and the mix keeps
// the offered work the same for every seed.
func liveSchedule(rng *rand.Rand, tag string, rate float64, span time.Duration) []liveOp {
	n := int(rate * span.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	kinds := make([]opKind, n)
	for i := range kinds {
		kinds[i] = opKind(4 * i / n) // opLocalRead, opQuorumRead, opSet, opTransfer: a quarter each
	}
	rng.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	ops := make([]liveOp, n)
	for i := range ops {
		op := liveOp{due: dues[i], kind: kinds[i], node: rng.Intn(len(liveRegions)), pick: rng.Float64()}
		switch op.kind {
		case opSet:
			op.key = fmt.Sprintf("lt-%s-%d", tag, i)
			op.value = []byte(fmt.Sprintf("v-%s-%d-%d", tag, i, rng.Int63()))
		case opTransfer:
			a := rng.Intn(liveAccounts)
			b := (a + 1 + rng.Intn(liveAccounts-1)) % liveAccounts
			op.from, op.to = fmt.Sprintf("acct-%d", a+1), fmt.Sprintf("acct-%d", b+1)
			op.amount = 1 + rng.Int63n(5)
		}
		ops[i] = op
	}
	return ops
}

// written is the set of keys the run has committed, in completion order,
// so a read can target a key written at least liveReadLag before it is due.
type written struct {
	mu   sync.Mutex
	keys []writtenKey
}

type writtenKey struct {
	key   string
	value []byte
	at    time.Time
}

func (w *written) add(key string, value []byte) {
	w.mu.Lock()
	w.keys = append(w.keys, writtenKey{key, value, time.Now()})
	w.mu.Unlock()
}

// pick returns the key at fraction u of those committed before cutoff, or
// false when none is old enough yet.
func (w *written) pick(u float64, cutoff time.Time) (writtenKey, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := sort.Search(len(w.keys), func(i int) bool { return w.keys[i].at.After(cutoff) })
	if n == 0 {
		return writtenKey{}, false
	}
	return w.keys[int(u*float64(n))%n], true
}

// opResult is one request's outcome.
type opResult struct {
	kind              opKind
	late, latency     time.Duration // start - due, end - due
	submit, wait      time.Duration // writes: client-timed halves
	committed, failed bool
	wrong             error // a read that returned the wrong value
}

// window is the outcome of one open-loop window.
type window struct {
	results []opResult
	wall    time.Duration // window start to the last completion
}

// runWindow offers ops on schedule with at most GOMAXPROCS in flight. Each
// request's latency runs from its due time, so a stall that delays later
// requests counts against them too.
func runWindow(t *liveTrio, ops []liveOp, w *written) window {
	workers := runtime.GOMAXPROCS(0)
	results := make([]opResult, len(ops))
	var next sync.Mutex
	idx := 0
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				sleepUntil(due)
				results[i] = doOp(t, ops[i], due, w)
			}
		}()
	}
	wg.Wait()
	var last time.Duration
	for i, r := range results {
		last = max(last, ops[i].due+r.latency)
	}
	return window{results: results, wall: last}
}

// sleepUntil blocks the calling thread until t in a kernel nanosleep. An
// idle Go process wakes for a runtime timer through the netpoller, whose
// epoll timeout has millisecond granularity, so time.Sleep dispatched
// requests up to 1 ms late (0.5 ms at the median) on requests that take
// about as long; the kernel's high-resolution timer wakes within about
// 0.1 ms.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// doOp executes one request and classifies its outcome: errors, refusals,
// wait timeouts and not-found reads are failures.
func doOp(t *liveTrio, op liveOp, due time.Time, w *written) opResult {
	nd := t.nodes[op.node]
	start := time.Now()
	r := opResult{kind: op.kind, late: start.Sub(due)}
	switch op.kind {
	case opLocalRead, opQuorumRead:
		k, ok := w.pick(op.pick, due.Add(-liveReadLag))
		if !ok {
			k = writtenKey{key: fmt.Sprintf("acct-%d", 1+int(op.pick*liveAccounts))}
		}
		var resp httpapi.ReadResponse
		var err error
		if op.kind == opLocalRead {
			resp, err = nd.client.Read(k.key)
		} else {
			resp, err = nd.client.QuorumRead(k.key)
		}
		switch {
		case err != nil || !resp.Found:
			r.failed = true
		case k.value != nil && !bytes.Equal(resp.Bytes, k.value):
			r.wrong = fmt.Errorf("read of %s on %s returned %q, committed %q", k.key, nd.region, resp.Bytes, k.value)
		}
	case opSet, opTransfer:
		var req httpapi.SubmitRequest
		if op.kind == opSet {
			req.Ops = []httpapi.Op{{Kind: "set", Key: op.key, Value: op.value}}
		} else {
			req.Ops = []httpapi.Op{
				{Kind: "add", Key: op.from, Delta: -op.amount},
				{Kind: "add", Key: op.to, Delta: op.amount},
			}
		}
		st, submit, wait, err := submitAndWait(nd.client, req)
		r.submit, r.wait = submit, wait
		switch {
		case err != nil:
			r.failed = true
		case st.Committed:
			r.committed = true
			if op.kind == opSet {
				w.add(op.key, op.value)
			}
		}
	}
	r.latency = time.Since(due)
	return r
}

// errWaitTimeout marks a write whose bounded server-side waits expired.
var errWaitTimeout = errors.New("wait bound expired")

// submitAndWait posts a transaction and waits for its final outcome with
// bounded server-side waits, timing the two halves.
func submitAndWait(c *httpapi.Client, req httpapi.SubmitRequest) (st httpapi.Status, submit, wait time.Duration, err error) {
	start := time.Now()
	id, err := c.Submit(req)
	submit = time.Since(start)
	if err != nil {
		return st, submit, 0, err
	}
	start = time.Now()
	st, err = waitFinal(c, id)
	return st, submit, time.Since(start), err
}

// waitFinal rides bounded server-side waits until the transaction is done.
// A wait can return a beat before the final callback has run, so an undone
// status is retried a few times before it counts as an error.
func waitFinal(c *httpapi.Client, id string) (httpapi.Status, error) {
	for attempt := 0; attempt < 4; attempt++ {
		st, timedOut, err := c.WaitBounded(id, liveWaitBound)
		switch {
		case err != nil:
			return st, err
		case timedOut:
			return st, errWaitTimeout
		case st.Done:
			return st, nil
		}
	}
	return httpapi.Status{}, fmt.Errorf("transaction %s: wait returned an undone status", id)
}

// summarize splits a window's due-to-done latencies (ms) into writes and
// reads and counts the outcomes. A failed request counts as taking at
// least the wait bound, so it misses any latency bound below that.
func summarize(win window) (writes, reads []float64, committed, attempted, failed int, wrong error) {
	for _, r := range win.results {
		lat := ms(r.latency)
		if r.failed {
			lat = max(lat, ms(liveWaitBound))
			failed++
		}
		if r.wrong != nil && wrong == nil {
			wrong = r.wrong
		}
		switch r.kind {
		case opSet, opTransfer:
			attempted++
			writes = append(writes, lat)
			if r.committed {
				committed++
			}
		default:
			reads = append(reads, lat)
		}
	}
	return writes, reads, committed, attempted, failed, wrong
}

// runLive is live-trio. Each run boots the trio liveBoots times (setup_s
// is the median boot), tops up the accounts, warms up, then offers the
// seeded open-loop window at liveRate. After the window it checks that
// every node agrees on every decision and conserves the acct-* total,
// SIGKILLs one node, restarts it on its own data dir, times the restart to
// its first commit and checks agreement and conservation again.
func runLive(cfg runConfig) (outcome, error) {
	if cfg.planetd == "" {
		return outcome{}, errors.New("-planetd is required")
	}
	base := filepath.Join(cfg.workdir, fmt.Sprintf("live-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var setups []float64
	var trio *liveTrio
	for i := 0; i < liveBoots; i++ {
		dir := filepath.Join(base, fmt.Sprintf("boot-%d", i))
		start := time.Now()
		t, err := bootTrio(cfg.planetd, dir)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < liveBoots-1 {
			t.kill()
			os.RemoveAll(dir)
			continue
		}
		trio = t
	}
	defer trio.kill()

	if err := topUp(trio); err != nil {
		return outcome{}, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &written{}
	runWindow(trio, liveSchedule(rng, "warm", liveRate, liveWarmup), w)

	// The measured window: the run's seconds minus what boots, warm-up and
	// the restart drill take, at least a few seconds. planetd always runs
	// with tracing on, so a traced run offers the same window and only
	// reads the nodes' counters around it.
	span := cfg.seconds - liveWarmup - 4*time.Second
	if span < 3*time.Second {
		span = 3 * time.Second
	}
	ops := liveSchedule(rng, "main", liveRate, span)
	var before liveCounters
	var err error
	if cfg.trace {
		if before, err = readCounters(trio); err != nil {
			return outcome{}, err
		}
	}
	cpu0, err := trio.cpu()
	if err != nil {
		return outcome{}, err
	}
	win := runWindow(trio, ops, w)
	cpu1, err := trio.cpu()
	if err != nil {
		return outcome{}, err
	}
	writes, _, committed, attempted, failed, wrong := summarize(win)
	res := outcome{attempted: uint64(len(win.results)), failed: uint64(failed), oracleErr: wrong}

	var layers map[string]float64
	if cfg.trace {
		if layers, err = liveLayers(cfg, trio, rng, w, win, before); err != nil {
			return outcome{}, err
		}
	}

	if res.oracleErr == nil {
		res.oracleErr = checkTrio(trio)
	}
	restart, err := restartDrill(trio, cfg.workdir, layers)
	if err != nil {
		return outcome{}, err
	}
	if res.oracleErr == nil {
		res.oracleErr = checkTrio(trio)
	}
	trio.stop(10 * time.Second)

	if cfg.trace {
		layers["cluster.restart_s"] = restart.Seconds()
		res.values = layers
		return res, nil
	}
	res.values = map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        win.wall.Seconds(),
		"cpu_s":         (cpu1 - cpu0).Seconds(),
		"peak_rss_mb":   float64(trio.maxRSS) / 1024,
		"commit_ratio":  float64(committed) / float64(attempted),
		"final_p50_ms":  quantile(writes, 0.5),
		"goodput_per_s": float64(committed) / win.wall.Seconds(),
	}
	return res, nil
}

// topUp adds liveTopUp to every account so transfers never hit the
// accounts' lower bound.
func topUp(t *liveTrio) error {
	c := t.nodes[0].client
	for i := 1; i <= liveAccounts; i++ {
		req := httpapi.SubmitRequest{Ops: []httpapi.Op{{Kind: "add", Key: fmt.Sprintf("acct-%d", i), Delta: liveTopUp}}}
		st, _, _, err := submitAndWait(c, req)
		if err != nil {
			return fmt.Errorf("top up acct-%d: %w", i, err)
		}
		if !st.Committed {
			return fmt.Errorf("top up acct-%d aborted: %s", i, st.Error)
		}
	}
	return nil
}

// checkTrio is live-trio's oracle: every pair of nodes agrees on every
// transaction both decided, and every node holds the seeded-plus-topped-up
// acct-* total (polled briefly, since decisions land asynchronously).
func checkTrio(t *liveTrio) error {
	nodes := t.nodes
	decisions := make([]map[string]bool, len(nodes))
	for i, nd := range nodes {
		d, err := nd.client.NetDecisions()
		if err != nil {
			return fmt.Errorf("decisions of %s: %w", nd.region, err)
		}
		decisions[i] = d
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			for id, a := range decisions[i] {
				if b, ok := decisions[j][id]; ok && a != b {
					return fmt.Errorf("nodes %s and %s disagree on %s: %v vs %v", nodes[i].region, nodes[j].region, id, a, b)
				}
			}
		}
	}
	want := int64(liveAccounts * (liveSeedAcct + liveTopUp))
	for _, nd := range nodes {
		var total int64
		deadline := time.Now().Add(5 * time.Second)
		for {
			total = 0
			for i := 1; i <= liveAccounts; i++ {
				r, err := nd.client.Read(fmt.Sprintf("acct-%d", i))
				if err != nil {
					return fmt.Errorf("read acct-%d on %s: %w", i, nd.region, err)
				}
				total += r.Int
			}
			if total == want || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if total != want {
			return fmt.Errorf("acct-* total on %s is %d, want %d", nd.region, total, want)
		}
	}
	return nil
}

// restartDrill SIGKILLs the first node, restarts it on its own data dir
// and returns the time from the kill to the restarted node's first commit.
// With layers non-nil it also times mdcc.OpenWALFile on a copy of the
// killed node's WAL.
func restartDrill(t *liveTrio, workdir string, layers map[string]float64) (time.Duration, error) {
	nd := t.nodes[0]
	killed := time.Now()
	t.killNode(nd)
	if layers != nil {
		copyStart := time.Now()
		replay, err := replayCopy(nd, workdir)
		if err != nil {
			return 0, err
		}
		layers["mdcc.replay_s"] = replay.Seconds()
		killed = killed.Add(time.Since(copyStart)) // the copy is not part of the restart
	}
	if err := t.start(nd); err != nil {
		return 0, err
	}
	probe := httpapi.SubmitRequest{Ops: []httpapi.Op{{Kind: "set", Key: "lt-restart", Value: []byte("up")}}}
	deadline := killed.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, _, _, err := submitAndWait(nd.client, probe); err == nil && st.Committed {
			return time.Since(killed), t.waitReady(nd, 10*time.Second)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("restarted node %s did not commit within 30s", nd.region)
}

// replayCopy copies a stopped node's WAL and times mdcc.OpenWALFile on the
// copy. OpenWALFile hands back a WAL that keeps its file open; the copy is
// unlinked at once and the descriptor goes with the process.
func replayCopy(nd *liveNode, workdir string) (time.Duration, error) {
	src, err := os.ReadFile(walPath(nd))
	if err != nil {
		return 0, err
	}
	path := filepath.Join(workdir, fmt.Sprintf("replay-%d.jsonl", os.Getpid()))
	if err := os.WriteFile(path, src, 0o644); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	start := time.Now()
	_, n, _, err := mdcc.OpenWALFile(path)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("WAL of %s is empty", nd.region)
	}
	return d, nil
}

// walSize returns the entries and bytes in every node's WAL.
func walSize(t *liveTrio) (entries, size int64, err error) {
	for _, nd := range t.nodes {
		f, err := os.Open(walPath(nd))
		if err != nil {
			return 0, 0, err
		}
		r := bufio.NewReader(f)
		for {
			line, rerr := r.ReadSlice('\n')
			size += int64(len(line))
			if rerr == bufio.ErrBufferFull {
				continue
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				f.Close()
				return 0, 0, rerr
			}
			entries++
		}
		f.Close()
	}
	return entries, size, nil
}

// netTotals sums the realnet frame and payload counters over the nodes.
func netTotals(t *liveTrio) (frames, payloads uint64, err error) {
	for _, nd := range t.nodes {
		p, err := nd.client.NetPeers()
		if err != nil {
			return 0, 0, err
		}
		frames += p.Stats.Sent
		payloads += p.Stats.Delivered
	}
	return frames, payloads, nil
}

// liveCounters are the node counters a traced run reads around its window.
type liveCounters struct {
	frames, payloads     uint64 // realnet, summed over the nodes
	walEntries, walBytes int64  // every node's WAL
}

func readCounters(t *liveTrio) (liveCounters, error) {
	var c liveCounters
	var err error
	if c.frames, c.payloads, err = netTotals(t); err != nil {
		return c, err
	}
	c.walEntries, c.walBytes, err = walSize(t)
	return c, err
}

// liveLayers collects the per-layer metrics of the window just run, given
// the counters read before it: client-timed submit and wait halves, the
// gateways' own request histograms, realnet frame counters, per-stage
// attribution, WAL growth, direct WAL append and fsync calls, generator
// lateness and the rate ladder. planetd cannot turn its tracing off, so the
// tracing overhead is not measurable here and trace.* report 0.
func liveLayers(cfg runConfig, t *liveTrio, rng *rand.Rand, w *written, win window, before liveCounters) (map[string]float64, error) {
	after, err := readCounters(t)
	if err != nil {
		return nil, err
	}
	writes, reads, committed, _, _, _ := summarize(win)
	commits := math.Max(float64(committed), 1)
	frames := float64(after.frames - before.frames)

	var submits, waits, lates []float64
	for _, r := range win.results {
		lates = append(lates, ms(r.late))
		if r.kind == opSet || r.kind == opTransfer {
			submits = append(submits, ms(r.submit))
			waits = append(waits, ms(r.wait))
		}
	}
	l := map[string]float64{
		"httpapi.submit_ms":           median(submits),
		"httpapi.wait_ms":             median(waits),
		"realnet.frames_per_commit":   frames / commits,
		"realnet.payloads_per_frame":  float64(after.payloads-before.payloads) / math.Max(frames, 1),
		"mdcc.wal_entries_per_commit": float64(after.walEntries-before.walEntries) / commits,
		"mdcc.wal_bytes_per_commit":   float64(after.walBytes-before.walBytes) / commits,
		"gen.late_p99_ms":             quantile(lates, 0.99),
		"core.final_p99_ms":           quantile(writes, 0.99),
		"httpapi.read_p50_ms":         quantile(reads, 0.5),
		"httpapi.read_p99_ms":         quantile(reads, 0.99),
	}
	p50, err := serverP50(t)
	if err != nil {
		return nil, err
	}
	l["httpapi.server_p50_ms"] = p50
	snap, err := mergedAttribution(t)
	if err != nil {
		return nil, err
	}
	for k, v := range stageSelfMs(snap, 1) {
		l[k] = v
	}
	appendUs, syncUs, err := walProbe(cfg.workdir)
	if err != nil {
		return nil, err
	}
	l["mdcc.wal_append_us"], l["mdcc.wal_sync_us"] = appendUs, syncUs
	l["cluster.max_rate_at_slo"] = rateLadder(t, rng, w)
	return l, nil
}

// rateLadder offers each rung of liveLadder for liveLadderStep and returns
// the highest rate whose commit p99 stays within liveSLO (failures count
// as misses) while the generator keeps up (p99 lateness within liveSLO,
// so the backlog is not growing).
func rateLadder(t *liveTrio, rng *rand.Rand, w *written) float64 {
	best := 0.0
	for i, rate := range liveLadder {
		win := runWindow(t, liveSchedule(rng, fmt.Sprintf("ladder%d", i), rate, liveLadderStep), w)
		writes, _, _, _, _, _ := summarize(win)
		var lates []float64
		for _, r := range win.results {
			lates = append(lates, ms(r.late))
		}
		if quantile(writes, 0.99) > ms(liveSLO) || quantile(lates, 0.99) > ms(liveSLO) {
			break
		}
		best = rate
	}
	return best
}

// walProbe times direct WAL.Append and WAL.Sync calls on a file.
func walProbe(workdir string) (appendUs, syncUs float64, err error) {
	const appends, syncs = 5000, 50
	path := filepath.Join(workdir, fmt.Sprintf("walprobe-%d.jsonl", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	w := mdcc.NewWAL(f)
	entry := func(i int) mdcc.Entry {
		return mdcc.Entry{
			Txn:     txn.ID(i + 1),
			Commit:  true,
			Options: []txn.Op{{Kind: txn.OpSet, Key: fmt.Sprintf("lt-probe-%d", i), Value: []byte("0123456789abcdef")}},
			At:      time.Unix(0, int64(i)),
		}
	}
	start := time.Now()
	for i := 0; i < appends; i++ {
		w.Append(entry(i))
	}
	appendUs = float64(time.Since(start).Microseconds()) / appends
	var spent time.Duration
	for i := 0; i < syncs; i++ {
		w.Append(entry(appends + i))
		s := time.Now()
		if err := w.Sync(); err != nil {
			return 0, 0, err
		}
		spent += time.Since(s)
	}
	if err := w.Err(); err != nil {
		return 0, 0, err
	}
	return appendUs, float64(spent.Microseconds()) / syncs, nil
}

// mergedAttribution pools every node's /v1/attribution stage means,
// weighted by sample count.
func mergedAttribution(t *liveTrio) (obs.Snapshot, error) {
	sum := make(map[string]float64)
	count := make(map[string]uint64)
	for _, nd := range t.nodes {
		snap, err := nd.client.Attribution()
		if err != nil {
			return obs.Snapshot{}, err
		}
		for _, st := range snap.Stages {
			sum[st.Stage] += float64(st.Mean) * float64(st.Count)
			count[st.Stage] += st.Count
		}
	}
	var out obs.Snapshot
	for name, n := range count {
		out.Stages = append(out.Stages, obs.StageStat{Stage: name, Count: n, Mean: time.Duration(sum[name] / float64(n))})
	}
	return out, nil
}

// serverP50 merges every gateway's planet_http_request_duration_seconds
// histogram for the submit route and interpolates its median.
func serverP50(t *liveTrio) (float64, error) {
	const prefix = `planet_http_request_duration_seconds_bucket{route="/v1/txn",le="`
	perNode := make([]map[float64]float64, 0, len(t.nodes))
	edgeSet := make(map[float64]bool)
	for _, nd := range t.nodes {
		text, err := nd.client.Metrics()
		if err != nil {
			return 0, err
		}
		cum := make(map[float64]float64)
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			rest := line[len(prefix):]
			q := strings.IndexByte(rest, '"')
			if q < 0 || rest[:q] == "+Inf" {
				continue
			}
			le, err1 := strconv.ParseFloat(rest[:q], 64)
			n, err2 := strconv.ParseFloat(strings.TrimSpace(rest[strings.LastIndexByte(rest, ' ')+1:]), 64)
			if err1 != nil || err2 != nil {
				return 0, fmt.Errorf("parse metrics line %q", line)
			}
			cum[le] = n
			edgeSet[le] = true
		}
		perNode = append(perNode, cum)
	}
	edges := make([]float64, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Float64s(edges)
	// A cumulative count is valid at any edge: a node's count at an edge
	// it does not list is its count at the nearest listed edge below.
	merged := make([]float64, len(edges))
	for _, cum := range perNode {
		last := 0.0
		for i, e := range edges {
			if n, ok := cum[e]; ok {
				last = n
			}
			merged[i] += last
		}
	}
	if len(edges) == 0 || merged[len(merged)-1] == 0 {
		return 0, errors.New("no submit requests in the gateways' histograms")
	}
	target := merged[len(merged)-1] / 2
	lower, below := 0.0, 0.0
	for i, e := range edges {
		if merged[i] >= target {
			return 1e3 * (lower + (target-below)/(merged[i]-below)*(e-lower)), nil
		}
		lower, below = e, merged[i]
	}
	return 1e3 * edges[len(edges)-1], nil
}
