package experiments

import (
	"fmt"
	"net"
	goruntime "runtime"
	"sync"
	"time"

	"lhws/internal/io"
	"lhws/internal/runtime"
	"lhws/internal/stats"
)

// Real-socket echo benchmark (`-exp io`, BENCH_io.json): the paper's
// central claim measured against a genuine network stack instead of
// simulated latencies. An echo server runs on the task runtime — accept
// loop plus one handler task per connection, each request costing a real
// wall-clock δ before the reply — and is driven by C ≫ P external
// client connections (plain goroutines, the load generator, not tasks).
//
// In blocking mode every pending socket operation and every δ holds a
// worker, so at most P−1 requests are in flight (the accept loop pins
// the remaining worker) and throughput is capped near (P−1)/δ. Under
// latency hiding the same server code suspends the task instead: all C
// connections' requests overlap and throughput approaches C/δ until
// scheduler overhead binds. The Check gate demands the latency-hiding
// server sustain at least 3× the blocking throughput — the recorded
// margin is far larger.
type IOBenchConfig struct {
	Workers int
	Conns   int
	Rounds  int           // requests per connection
	Delta   time.Duration // per-request server-side latency
	Frame   int           // request/reply payload bytes
}

// ScaledIOBench is the recorded configuration: P=4 workers, C=64
// connections, δ=50ms — the paper's middle Figure-11 latency.
func ScaledIOBench() IOBenchConfig {
	return IOBenchConfig{Workers: 4, Conns: 64, Rounds: 3, Delta: 50 * time.Millisecond, Frame: 16}
}

// IOBenchRow is one mode's measurement.
type IOBenchRow struct {
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	Conns      int     `json:"conns"`
	Rounds     int     `json:"rounds"`
	DeltaMS    float64 `json:"delta_ms"`
	WallMS     float64 `json:"wall_ms"`
	Requests   int     `json:"requests"`
	Throughput float64 `json:"requests_per_sec"`
}

// IOBenchResult is the two-mode comparison, serialized as BENCH_io.json.
type IOBenchResult struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Cfg        IOBenchConfig `json:"config"`
	Rows       []IOBenchRow  `json:"rows"`
	Ratio      float64       `json:"hiding_over_blocking"`
}

// IOBench measures the echo server in both modes and returns the sweep.
func IOBench(cfg IOBenchConfig) (*IOBenchResult, error) {
	res := &IOBenchResult{GoMaxProcs: goruntime.GOMAXPROCS(0), Cfg: cfg}
	var walls [2]time.Duration
	for i, mode := range []runtime.Mode{runtime.Blocking, runtime.LatencyHiding} {
		row, err := measureEcho(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		walls[i] = time.Duration(row.WallMS * float64(time.Millisecond))
		res.Rows = append(res.Rows, row)
	}
	if walls[1] > 0 {
		res.Ratio = float64(walls[0]) / float64(walls[1])
	}
	return res, nil
}

// measureEcho runs one mode: the server under test inside Run, the load
// generator outside it. The measured wall spans first dial to last
// reply, excluding listener setup. Workers must be >= 3 for the
// blocking mode to make progress: the root's AwaitChan and the accept
// spine each pin a worker there, and the handlers need at least one
// more.
func measureEcho(cfg IOBenchConfig, mode runtime.Mode) (IOBenchRow, error) {
	row := IOBenchRow{
		Mode: mode.String(), Workers: cfg.Workers, Conns: cfg.Conns,
		Rounds: cfg.Rounds, DeltaMS: float64(cfg.Delta) / float64(time.Millisecond),
		Requests: cfg.Conns * cfg.Rounds,
	}
	addrCh := make(chan string, 1)
	clientsDone := make(chan struct{})
	var clientErr error
	var clientMu sync.Mutex
	var wall time.Duration

	// Load generator: C plain-goroutine clients, each R sequential
	// write+read roundtrips on its own TCP connection.
	go func() {
		defer close(clientsDone)
		addr := <-addrCh
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < cfg.Conns; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				nc, err := net.Dial("tcp", addr)
				if err == nil {
					defer nc.Close()
					out := make([]byte, cfg.Frame)
					for j := range out {
						out[j] = byte(id)
					}
					in := make([]byte, cfg.Frame)
					for r := 0; r < cfg.Rounds && err == nil; r++ {
						if _, err = nc.Write(out); err == nil {
							_, err = readFullRaw(nc, in)
						}
					}
				}
				if err != nil {
					clientMu.Lock()
					if clientErr == nil {
						clientErr = fmt.Errorf("client %d: %w", id, err)
					}
					clientMu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		wall = time.Since(start)
	}()

	_, err := runtime.Run(runtime.Config{Workers: cfg.Workers, Mode: mode, Deadline: 5 * time.Minute},
		func(c *runtime.Ctx) {
			l, lerr := io.Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				clientMu.Lock()
				clientErr = lerr
				clientMu.Unlock()
				close(addrCh)
				return
			}
			addrCh <- l.Addr().String()
			srv := c.Spawn(func(cc *runtime.Ctx) {
				for {
					cn, aerr := l.Accept(cc)
					if aerr != nil {
						return
					}
					cc.Spawn(func(hc *runtime.Ctx) {
						defer cn.Close()
						buf := make([]byte, cfg.Frame)
						for {
							if rerr := readFullConn(hc, cn, buf); rerr != nil {
								return
							}
							hc.Latency(cfg.Delta) // the per-request δ
							if _, werr := cn.Write(hc, buf); werr != nil {
								return
							}
						}
					})
				}
			})
			runtime.AwaitChan[struct{}](c, clientsDone)
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		return row, err
	}
	if clientErr != nil {
		return row, clientErr
	}
	row.WallMS = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		row.Throughput = float64(row.Requests) / wall.Seconds()
	}
	return row, nil
}

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

// Table renders the two-mode comparison.
func (r *IOBenchResult) Table() *stats.Table {
	t := stats.NewTable("mode", "P", "conns", "δ", "wall", "req/s")
	for _, row := range r.Rows {
		t.AddRowf(row.Mode, row.Workers, row.Conns,
			fmt.Sprintf("%.0fms", row.DeltaMS),
			fmt.Sprintf("%.0fms", row.WallMS),
			fmt.Sprintf("%.0f", row.Throughput))
	}
	return t
}

// Check enforces the latency-hiding contract on real sockets: ≥3× the
// blocking throughput at the recorded configuration.
func (r *IOBenchResult) Check() error {
	if r.Ratio < 3 {
		return fmt.Errorf("latency hiding only %.2fx over blocking, want >= 3x (C=%d conns, δ=%.0fms)",
			r.Ratio, r.Cfg.Conns, float64(r.Cfg.Delta)/float64(time.Millisecond))
	}
	return nil
}
