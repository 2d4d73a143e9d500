package experiments

import (
	"fmt"
	"net"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/admit"
	"lhws/internal/io"
	"lhws/internal/runtime"
	"lhws/internal/stats"
)

// Goodput under overload (`-exp goodput`, BENCH_goodput.json): the
// robustness experiment behind the paper's interactive-server scenario
// (§5). Throughput is the wrong metric past saturation — Gast et
// al.'s work-stealing-with-latency analyses make goodput (the fraction
// of requests finishing under their target T) the quantity a server
// must defend. This benchmark offers a multi-tenant mix of small
// requests and periodic huge "poison" requests to the lhws echo-style
// server at open-loop load multipliers around calibrated capacity, in
// two configurations:
//
//   - shed: the full overload-control stack — admit.Controller intake
//     (admit / degrade / reject-fast), accept-gate backpressure,
//     per-request WithTarget, and ShedBlownTargets steal gating — plus
//     a graceful drain at the end of every row.
//
//   - noshed: the same server with the stack disabled: every request
//     admitted at full parallelism, nothing ever shed.
//
// The Check gate encodes the robustness claim: at the highest load
// multiplier the shedding server's admitted-goodput holds ≥ 70% of its
// 1×-load goodput, while the no-shedding baseline collapses below that
// line. In smoke mode (CI) only the no-collapse half is enforced at a
// tiny load.
type GoodputConfig struct {
	Workers int           // runtime workers (P)
	Target  time.Duration // per-request latency target T

	SubLatency time.Duration // per-subtask suspension (I/O-like wait)
	SubCompute time.Duration // per-subtask CPU spin
	SmallFan   int           // subtasks per small request
	HugeFan    int           // subtasks per huge (poison) request
	HugeEvery  int           // every Nth request is huge

	Mults       []float64     // load multipliers relative to capacity
	Util        float64       // fraction of capacity that defines 1x load
	RowDuration time.Duration // offered-arrival window per row

	MaxInflight int     // admission credit pool (gate bound)
	DegradeAt   float64 // saturation at which requests degrade
	RejectAt    float64 // saturation at which requests reject fast

	ClientCap     int           // max concurrent client requests (fd guard)
	ClientTimeout time.Duration // per-request client deadline
	DrainGrace    time.Duration // drain grace at row end (shed mode)

	Smoke bool // relax Check to the no-collapse half
}

// ScaledGoodput is the recorded configuration: P=4 workers, ~6 subtasks
// per request on average, load at 0.5x/1x/2x/4x of half-utilization
// capacity. Capacity is calibrated against min(P, NumCPU), so the
// recorded numbers are comparable across single-core CI boxes and
// multi-core laptops.
func ScaledGoodput() GoodputConfig {
	return GoodputConfig{
		Workers:       4,
		Target:        60 * time.Millisecond,
		SubLatency:    2 * time.Millisecond,
		SubCompute:    time.Millisecond,
		SmallFan:      4,
		HugeFan:       24,
		HugeEvery:     10,
		Mults:         []float64{0.5, 1, 2, 4},
		Util:          0.5,
		RowDuration:   2 * time.Second,
		MaxInflight:   128,
		DegradeAt:     0.7,
		RejectAt:      1.2,
		ClientCap:     512,
		ClientTimeout: 3 * time.Second,
		DrainGrace:    500 * time.Millisecond,
	}
}

// SmokeGoodput is the CI configuration: two workers, two loads, a few
// hundred milliseconds per row, gated only on "shedding did not
// collapse".
func SmokeGoodput() GoodputConfig {
	cfg := ScaledGoodput()
	cfg.Workers = 2
	cfg.SubCompute = 2 * time.Millisecond
	cfg.SmallFan = 2
	cfg.HugeFan = 8
	cfg.HugeEvery = 5
	cfg.Mults = []float64{1, 4}
	cfg.RowDuration = 400 * time.Millisecond
	cfg.MaxInflight = 16
	cfg.ClientCap = 128
	cfg.ClientTimeout = 2 * time.Second
	cfg.Smoke = true
	return cfg
}

// GoodputRow is one (mode, load multiplier) measurement.
type GoodputRow struct {
	Mode        string  `json:"mode"` // "shed" or "noshed"
	Mult        float64 `json:"load_mult"`
	OfferedRate float64 `json:"offered_per_sec"`
	Offered     int     `json:"offered"`

	OK            int `json:"ok"`              // completed with a full reply
	OKUnderTarget int `json:"ok_under_target"` // ...within the target T
	Rejected      int `json:"rejected"`        // refused fast at intake
	Shed          int `json:"shed"`            // admitted, then target-shed
	Failed        int `json:"failed"`          // dial/timeout/transport errors

	// Goodput is the admitted goodput: OKUnderTarget / (OK + Shed).
	Goodput  float64 `json:"admitted_goodput"`
	MeanOKMS float64 `json:"mean_ok_ms"`
	P95OKMS  float64 `json:"p95_ok_ms"`

	TasksLate      int64 `json:"tasks_late"`
	TargetCancels  int64 `json:"target_cancels"`
	DrainCompleted int   `json:"drain_completed"`
	DrainCanceled  int   `json:"drain_canceled"`
	DrainRemaining int   `json:"drain_remaining"`
}

// GoodputResult is the full sweep, serialized as BENCH_goodput.json.
type GoodputResult struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numcpu"`
	Cfg        GoodputConfig `json:"config"`
	Rows       []GoodputRow  `json:"rows"`
}

// effectiveCores is the parallelism capacity calibration is based on:
// workers can't use more cores than the machine has.
func (cfg GoodputConfig) effectiveCores() float64 {
	cores := goruntime.NumCPU()
	if cfg.Workers < cores {
		cores = cfg.Workers
	}
	if cores < 1 {
		cores = 1
	}
	return float64(cores)
}

// baseRate is the 1x offered arrival rate (requests/second): Util of the
// effective-core capacity divided by the average CPU cost per request.
func (cfg GoodputConfig) baseRate() float64 {
	avgSub := float64((cfg.HugeEvery-1)*cfg.SmallFan+cfg.HugeFan) / float64(cfg.HugeEvery)
	cpu := avgSub * cfg.SubCompute.Seconds()
	return cfg.Util * cfg.effectiveCores() / cpu
}

// GoodputBench runs the sweep: every load multiplier in both modes.
func GoodputBench(cfg GoodputConfig) (*GoodputResult, error) {
	res := &GoodputResult{GoMaxProcs: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(), Cfg: cfg}
	for _, shed := range []bool{true, false} {
		for _, mult := range cfg.Mults {
			row, err := measureGoodput(cfg, mult, shed)
			if err != nil {
				return nil, fmt.Errorf("%s %gx: %w", row.Mode, mult, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// spinFor burns CPU for roughly d of wall time — the request's compute,
// which (unlike Latency) cannot be hidden and is what saturates workers.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// measureGoodput runs one row: the server under test inside Run, an
// open-loop client population outside it.
func measureGoodput(cfg GoodputConfig, mult float64, shed bool) (GoodputRow, error) {
	row := GoodputRow{Mode: "noshed", Mult: mult}
	if shed {
		row.Mode = "shed"
	}
	rate := cfg.baseRate() * mult
	offered := int(rate * cfg.RowDuration.Seconds())
	if offered < 1 {
		offered = 1
	}
	interval := cfg.RowDuration / time.Duration(offered)
	row.Offered = offered
	row.OfferedRate = rate

	var (
		ok, okGood, rejected, wasShed, failed atomic.Int64
		latMu                                 sync.Mutex
		okLatencies                           []time.Duration
	)
	addrCh := make(chan string, 1)
	clientsDone := make(chan struct{})

	// Open-loop load generator: one short-lived connection per request,
	// arrivals on a fixed schedule, concurrency capped only as an fd
	// guard. Requests are not retried; every outcome is counted.
	go func() {
		defer close(clientsDone)
		addr, okAddr := <-addrCh
		if !okAddr {
			return
		}
		sem := make(chan struct{}, cfg.ClientCap)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < offered; i++ {
			if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
				time.Sleep(d)
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() { <-sem }()
				req := byte('s')
				if id%cfg.HugeEvery == cfg.HugeEvery-1 {
					req = 'h'
				}
				t0 := time.Now()
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					failed.Add(1)
					return
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(cfg.ClientTimeout))
				var reply [1]byte
				if _, err := nc.Write([]byte{req}); err != nil {
					failed.Add(1)
					return
				}
				if _, err := readFullRaw(nc, reply[:]); err != nil {
					failed.Add(1)
					return
				}
				lat := time.Since(t0)
				switch reply[0] {
				case 'o':
					ok.Add(1)
					if lat <= cfg.Target {
						okGood.Add(1)
					}
					latMu.Lock()
					okLatencies = append(okLatencies, lat)
					latMu.Unlock()
				case 'r':
					rejected.Add(1)
				case 's':
					wasShed.Add(1)
				default:
					failed.Add(1)
				}
			}(i)
		}
		wg.Wait()
	}()

	rcfg := runtime.Config{
		Workers:          cfg.Workers,
		Mode:             runtime.LatencyHiding,
		Deadline:         2 * time.Minute,
		ShedBlownTargets: shed,
	}
	st, err := runtime.Run(rcfg, func(c *runtime.Ctx) {
		l, lerr := io.Listen(c, "tcp", "127.0.0.1:0")
		if lerr != nil {
			close(addrCh)
			return
		}
		var ctl *admit.Controller
		if shed {
			ctl = admit.New(admit.Config{
				MaxInflight: cfg.MaxInflight,
				DegradeAt:   cfg.DegradeAt,
				RejectAt:    cfg.RejectAt,
			})
			l.SetGate(ctl)
		}
		addrCh <- l.Addr().String()
		srv := c.Spawn(func(cc *runtime.Ctx) {
			for {
				cn, aerr := l.Accept(cc)
				if aerr != nil {
					return // listener closed or intake draining
				}
				cc.Spawn(func(hc *runtime.Ctx) {
					serveGoodput(hc, cn, cfg, ctl)
				})
			}
		})
		runtime.AwaitChan[struct{}](c, clientsDone)
		if ctl != nil {
			rep := ctl.Drain(c, cfg.DrainGrace)
			row.DrainCompleted = rep.Completed
			row.DrainCanceled = rep.Canceled
			row.DrainRemaining = rep.Remaining
		}
		l.Close()
		srv.Await(c)
	})
	if err != nil {
		return row, err
	}

	row.OK = int(ok.Load())
	row.OKUnderTarget = int(okGood.Load())
	row.Rejected = int(rejected.Load())
	row.Shed = int(wasShed.Load())
	row.Failed = int(failed.Load())
	if admitted := row.OK + row.Shed; admitted > 0 {
		row.Goodput = float64(row.OKUnderTarget) / float64(admitted)
	}
	if len(okLatencies) > 0 {
		sort.Slice(okLatencies, func(i, j int) bool { return okLatencies[i] < okLatencies[j] })
		var sum time.Duration
		for _, l := range okLatencies {
			sum += l
		}
		row.MeanOKMS = float64(sum) / float64(len(okLatencies)) / float64(time.Millisecond)
		row.P95OKMS = float64(okLatencies[len(okLatencies)*95/100]) / float64(time.Millisecond)
	}
	row.TasksLate = st.TasksLate
	row.TargetCancels = st.TargetCancels
	return row, nil
}

// serveGoodput handles one connection: read the request type, take the
// admission decision, run the request's fan-out under its target, and
// reply 'o' (served), 'r' (rejected fast), or 's' (admitted but shed).
func serveGoodput(hc *runtime.Ctx, cn *io.Conn, cfg GoodputConfig, ctl *admit.Controller) {
	defer cn.Close()
	var req [1]byte
	if err := readFullConn(hc, cn, req[:]); err != nil {
		return
	}
	fan := cfg.SmallFan
	if req[0] == 'h' {
		fan = cfg.HugeFan
	}
	var tk *admit.Ticket
	if ctl != nil {
		var aerr error
		tk, aerr = ctl.Admit(hc)
		if aerr != nil {
			// Reject fast: one byte, no work — the client retries
			// elsewhere instead of queueing into a blown target.
			cn.Write(hc, []byte{'r'})
			return
		}
		defer tk.Done()
		if tk.Degraded() {
			// Shed inner parallelism: serve a reduced answer at a
			// fraction of the cost.
			fan = 1
		}
	}
	rc, cancel := hc.WithTarget(cfg.Target)
	defer cancel()
	if tk != nil {
		tk.Bind(cancel)
	}
	futs := make([]*runtime.Future, 0, fan)
	for i := 0; i < fan; i++ {
		futs = append(futs, rc.Spawn(func(sc *runtime.Ctx) {
			sc.Latency(cfg.SubLatency)
			spinFor(cfg.SubCompute)
		}))
	}
	var werr error
	for _, f := range futs {
		if e := f.AwaitErr(hc); e != nil {
			werr = e
		}
	}
	reply := byte('o')
	if werr != nil {
		reply = 's' // target-shed (or drain-canceled) mid-request
	}
	cn.Write(hc, []byte{reply})
}

// readFullRaw reads exactly len(p) bytes from a plain net.Conn (the load
// generator's side).
func readFullRaw(nc net.Conn, p []byte) (int, error) {
	for off := 0; off < len(p); {
		n, err := nc.Read(p[off:])
		off += n
		if err != nil {
			return off, err
		}
	}
	return len(p), nil
}

// readFullConn reads exactly len(p) bytes from a task-side Conn.
func readFullConn(c *runtime.Ctx, cn *io.Conn, p []byte) error {
	for off := 0; off < len(p); {
		n, err := cn.Read(c, p[off:])
		off += n
		if err != nil {
			return err
		}
	}
	return nil
}

// Table renders the sweep.
func (r *GoodputResult) Table() *stats.Table {
	t := stats.NewTable("mode", "load", "offered", "ok", "good", "rej", "shed", "fail",
		"goodput", "p95", "late", "cancels")
	for _, row := range r.Rows {
		t.AddRowf(row.Mode, fmt.Sprintf("%.1fx", row.Mult), row.Offered,
			row.OK, row.OKUnderTarget, row.Rejected, row.Shed, row.Failed,
			fmt.Sprintf("%.3f", row.Goodput),
			fmt.Sprintf("%.0fms", row.P95OKMS),
			row.TasksLate, row.TargetCancels)
	}
	return t
}

func (r *GoodputResult) row(mode string, mult float64) *GoodputRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == mode && r.Rows[i].Mult == mult {
			return &r.Rows[i]
		}
	}
	return nil
}

// Check enforces the overload-robustness contract. Full mode: at the
// highest load multiplier, shedding holds admitted goodput at ≥ 70% of
// its own 1x goodput while the no-shedding baseline falls below that
// line; and shedding actually engaged (rejects, sheds, or target
// cancels happened). Smoke mode gates only on no-collapse: the shedding
// server's goodput at the highest load stays within half of its 1x
// goodput.
func (r *GoodputResult) Check() error {
	maxMult := 0.0
	for _, m := range r.Cfg.Mults {
		if m > maxMult {
			maxMult = m
		}
	}
	shed1 := r.row("shed", 1)
	shedMax := r.row("shed", maxMult)
	if shed1 == nil || shedMax == nil {
		return fmt.Errorf("sweep missing shed rows at 1x and %gx", maxMult)
	}
	if shed1.Goodput == 0 {
		return fmt.Errorf("shed 1x goodput is zero: server never served under target")
	}
	if r.Cfg.Smoke {
		if shedMax.Goodput < 0.5*shed1.Goodput {
			return fmt.Errorf("smoke: shedding collapsed: goodput %.3f at %gx < 50%% of %.3f at 1x",
				shedMax.Goodput, maxMult, shed1.Goodput)
		}
		return nil
	}
	line := 0.7 * shed1.Goodput
	if shedMax.Goodput < line {
		return fmt.Errorf("shedding goodput %.3f at %gx below 70%% of 1x goodput %.3f",
			shedMax.Goodput, maxMult, shed1.Goodput)
	}
	noshedMax := r.row("noshed", maxMult)
	if noshedMax == nil {
		return fmt.Errorf("sweep missing noshed row at %gx", maxMult)
	}
	if noshedMax.Goodput >= line {
		return fmt.Errorf("no-shedding baseline did not collapse: goodput %.3f at %gx >= 70%% line %.3f (overload insufficient)",
			noshedMax.Goodput, maxMult, line)
	}
	engaged := shedMax.Rejected + shedMax.Shed + int(shedMax.TargetCancels)
	if engaged == 0 {
		return fmt.Errorf("shedding never engaged at %gx: no rejects, sheds, or target cancels", maxMult)
	}
	return nil
}
