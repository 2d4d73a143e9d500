package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/admit"
	"lhws/internal/bufpool"
	lio "lhws/internal/io"
	"lhws/internal/runtime"
)

// A request is one 64-byte frame: request id, the client's clock() just
// before it writes, and a seeded payload. The reply is the same bytes. The
// client alone decides whether a request is traced and says so in the top
// bit of the id, so the two sides never disagree.
const (
	tracedBit   = 1 << 63
	frameSize   = 64
	frameHeader = 8 // the reply goes out as header + rest, two fragments, one writev

	fanout    = 4   // tasks a handler spawns and awaits per request
	fanSpin   = 500 // xorshift steps per spawned task
	idleConns = 64  // serve_sparse: connected, accepted and silent

	// Active clients per worker. serve keeps 4P requests in flight so that
	// workers always have one to run and throughput is bound by the CPU a
	// request costs. With P clients the runtime hovers between idle and
	// busy, 0.5-1.5 % of requests wait out an idle worker's ~1.2 ms sleep,
	// and throughput and p99 swing by 17 % and 73 % between runs (README,
	// "Measured anomalies"). serve_sparse keeps P clients: there the wait
	// for the rotation dominates and the numbers hold within 3 %.
	serveClientsPerWorker  = 4
	sparseClientsPerWorker = 1

	warmServe  = 1000 // round trips per client before the window may open
	warmSparse = 2

	clientTimeout = 5 * time.Second  // per request; a stalled reply is a failed op, not a hang
	rampTimeout   = 60 * time.Second // accept ramp + warm-up; exceeding it breaks the episode
)

// target is what the load generator needs from the server under test.
type target struct {
	addr     string
	accepted *atomic.Int64 // connections the server has accepted so far
}

// ---- the server under test ----

type lhwsServer struct {
	target
	tr       *tracer
	adm      *admit.Controller
	rejected atomic.Int64
	stopCh   chan struct{}
	done     chan struct{} // closed when Run has returned

	mu           sync.Mutex
	handlerStart map[int]int64 // client port -> clock() at handler start

	// Set before done is closed.
	stats       *runtime.Stats
	err         error
	peakBridges int
}

// startLHWS starts a Run that listens on loopback, accepts in one task
// and serves each connection in its own task. It returns once the
// listener is up.
func startLHWS(p params, tr *tracer) (*lhwsServer, error) {
	s := &lhwsServer{
		tr: tr,
		// Generous thresholds: at A closed-loop clients nothing may be
		// refused, and a refusal is a failed op.
		adm:          admit.New(admit.Config{MaxInflight: 1024, RejectAt: 64}),
		stopCh:       make(chan struct{}),
		done:         make(chan struct{}),
		handlerStart: make(map[int]int64),
	}
	s.accepted = new(atomic.Int64)
	addrCh := make(chan string, 1)
	var listenErr error
	go func() {
		defer close(s.done)
		s.stats, s.err = runtime.Run(runConfig(p, runtime.LatencyHiding), func(c *runtime.Ctx) {
			defer close(addrCh)
			l, err := lio.Listen(c, "tcp", "127.0.0.1:0")
			if err != nil {
				listenErr = err
				return
			}
			addrCh <- l.Addr().String()
			acceptor := c.Spawn(func(ac *runtime.Ctx) {
				for {
					cn, err := l.Accept(ac)
					if err != nil {
						return
					}
					s.accepted.Add(1)
					ac.Spawn(func(hc *runtime.Ctx) { s.handle(hc, cn) })
				}
			})
			_, _ = runtime.AwaitChan[struct{}](c, s.stopCh) // returns when stop closes it
			s.peakBridges = lio.PeakBridges(c)
			l.Close()
			acceptor.Await(c)
		})
	}()
	addr, ok := <-addrCh
	if !ok {
		<-s.done
		return nil, fmt.Errorf("listen: %w", errors.Join(listenErr, s.err))
	}
	s.addr = addr
	return s, nil
}

// stop ends the Run; every client connection must already be closed so
// that the handlers return.
func (s *lhwsServer) stop() {
	close(s.stopCh)
	<-s.done
}

// connState is a handler's per-connection scratch, so that the handler
// itself allocates nothing per request and allocs_per_op shows the
// layers' allocations.
type connState struct {
	in, out [fanout]uint64
	work    [fanout]func(*runtime.Ctx)
	futs    [fanout]*runtime.Future
	buf     [frameSize]byte
}

func newConnState() *connState {
	st := &connState{}
	for i := range st.work {
		st.work[i] = func(*runtime.Ctx) { st.out[i] = spin(st.in[i], fanSpin) }
	}
	return st
}

func (s *lhwsServer) handle(hc *runtime.Ctx, cn *lio.Conn) {
	defer cn.Close()
	s.mu.Lock()
	s.handlerStart[cn.NetConn().RemoteAddr().(*net.TCPAddr).Port] = clock()
	s.mu.Unlock()
	st := newConnState()
	for {
		pb, err := cn.ReadBuf(hc, frameSize)
		if err != nil {
			return
		}
		t1 := clock()
		frame := pb.Bytes()
		if len(frame) < frameSize { // TCP split the frame: gather the rest
			n := copy(st.buf[:], frame)
			pb.Release()
			pb = nil
			for n < frameSize {
				m, err := cn.Read(hc, st.buf[n:])
				if err != nil {
					return
				}
				n += m
			}
			frame = st.buf[:]
			t1 = clock()
		}
		var sc scope
		if id := binary.LittleEndian.Uint64(frame); id&tracedBit != 0 {
			sc = s.tr.join(id)
		}
		sc.add("io.read_wake", int64(binary.LittleEndian.Uint64(frame[8:])), t1)
		hs := sc.open("serve.handler", t1)

		t := hs.now()
		tk, err := s.adm.Admit(hc)
		hs.add("admit.admit", t, hs.now())
		if err != nil {
			s.rejected.Add(1)
			return // closing the conn fails the client's request
		}
		for i := range st.work {
			st.in[i] = binary.LittleEndian.Uint64(frame[16+8*i:])
			t = hs.now()
			st.futs[i] = hc.Spawn(st.work[i])
			hs.add("runtime.spawn", t, hs.now())
		}
		for _, f := range st.futs {
			t = hs.now()
			f.Await(hc)
			hs.add("runtime.await", t, hs.now())
		}
		tk.Done()
		cn.QueueWrite(frame[:frameHeader])
		cn.QueueWrite(frame[frameHeader:])
		t2 := hs.now()
		hs.close(t2)
		_, err = cn.Flush(hc)
		sc.add("io.flush", t2, sc.now())
		if pb != nil {
			pb.Release()
		}
		if err != nil {
			return
		}
	}
}

// ---- the native reference ----

// netEcho is the goroutine-per-connection net.Conn echo server the same
// generator drives for baseline.net_echo_rtt_us_p50.
type netEcho struct {
	target
	l  net.Listener
	wg sync.WaitGroup
}

func startNetEcho() (*netEcho, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &netEcho{l: l}
	e.addr, e.accepted = l.Addr().String(), new(atomic.Int64)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			e.accepted.Add(1)
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer nc.Close()
				var frame [frameSize]byte
				for {
					if _, err := io.ReadFull(nc, frame[:]); err != nil {
						return
					}
					if _, err := nc.Write(frame[:]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, nil
}

func (e *netEcho) stop() {
	e.l.Close()
	e.wg.Wait()
}

// ---- the load generator ----

const (
	phaseWarm int32 = iota
	phaseWindow
	phaseStop
)

type client struct {
	nc        net.Conn
	lat       []int64
	attempted int64
	failed    int64
}

// drive is the closed-loop generator: clients clients on persistent
// connections, each a plain goroutine that sends its next request when
// the reply to the last one is complete and byte-exact, beside idle
// connections that connect and stay silent. The window opens only after
// the server has accepted every connection and every client has done warm
// round trips; the time that takes is the episode's set-up.
func drive(p params, tr *tracer, start time.Time, tgt target, clients, idle, warm int) (ep episode, dialStart map[int]int64) {
	var conns []net.Conn
	defer func() {
		for _, nc := range conns {
			nc.Close()
		}
	}()
	dialStart = make(map[int]int64)
	for i := 0; i < idle+clients; i++ {
		t := clock()
		nc, err := net.DialTimeout("tcp", tgt.addr, clientTimeout)
		if err != nil {
			ep.err = fmt.Errorf("dial: %w", err)
			return ep, dialStart
		}
		conns = append(conns, nc)
		dialStart[nc.LocalAddr().(*net.TCPAddr).Port] = t
	}
	ramp := time.Now().Add(rampTimeout)
	for tgt.accepted.Load() < int64(len(conns)) {
		if time.Now().After(ramp) {
			ep.err = fmt.Errorf("accept ramp: %d of %d connections accepted after %v",
				tgt.accepted.Load(), len(conns), rampTimeout)
			return ep, dialStart
		}
		time.Sleep(200 * time.Microsecond)
	}

	var phase atomic.Int32
	var ready, exited sync.WaitGroup
	active := make([]*client, clients)
	for k := range active {
		cl := &client{nc: conns[idle+k], lat: make([]int64, 0, 1<<16)}
		active[k] = cl
		ready.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			var once sync.Once
			warmed := func() { once.Do(ready.Done) }
			defer warmed() // a client that gives up must not hold the barrier
			cl.loop(k, clients, p.seed, tr, &phase, warm, warmed)
		}()
	}
	warmed := make(chan struct{})
	go func() { ready.Wait(); close(warmed) }()
	select {
	case <-warmed:
	case <-time.After(time.Until(ramp)):
		ep.err = fmt.Errorf("warm-up: clients not ready after %v", rampTimeout)
	}
	if ep.err == nil {
		gets, news, _ := bufpool.Stats()
		var mem memWindow
		mem.open()
		open := time.Now()
		ep.setup = open.Sub(start)
		phase.Store(phaseWindow)
		time.Sleep(p.window)
		phase.Store(phaseStop)
		ep.window = time.Since(open)
		mem.close(&ep)
		gets1, news1, _ := bufpool.Stats()
		ep.bufGets, ep.bufNews = gets1-gets, news1-news
	}
	phase.Store(phaseStop)
	exited.Wait() // bounded: every request carries clientTimeout
	for _, cl := range active {
		ep.lat = append(ep.lat, cl.lat...)
		ep.attempted += cl.attempted
		ep.failed += cl.failed
	}
	ep.ops = int64(len(ep.lat))
	ep.runOps = ep.attempted - ep.failed
	return ep, dialStart
}

// loop is one client; it calls warmed after warm round trips.
func (cl *client) loop(k, clients int, seed uint64, tr *tracer, phase *atomic.Int32, warm int, warmed func()) {
	var frame, reply [frameSize]byte
	x := spin(seed+uint64(k), 8)
	for n := 0; ; n++ {
		if n == warm {
			warmed()
		}
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		id := uint64(n*clients + k + 1)
		sc := tr.sample(id)
		if sc.tr != nil {
			id |= tracedBit
			sc.id = id
		}
		for i := 16; i < frameSize; i += 8 {
			x = spin(x, 1)
			binary.LittleEndian.PutUint64(frame[i:], x)
		}
		binary.LittleEndian.PutUint64(frame[0:], id)
		cl.attempted++
		err := cl.nc.SetDeadline(time.Now().Add(clientTimeout))
		t0 := clock()
		binary.LittleEndian.PutUint64(frame[8:], uint64(t0))
		if err == nil {
			_, err = cl.nc.Write(frame[:])
		}
		if err == nil {
			_, err = io.ReadFull(cl.nc, reply[:])
		}
		t4 := clock()
		if err != nil || reply != frame {
			cl.failed++
			return // the stream's state is unknown; this client is done
		}
		sc.add("request", t0, t4)
		if ph == phaseWindow && phase.Load() == phaseWindow {
			cl.lat = append(cl.lat, t4-t0)
		}
	}
}

// serveEpisode drives the lhws server with clients active and idle idle
// connections.
func serveEpisode(p params, tr *tracer, clients, idle, warm int) episode {
	start := time.Now()
	srv, err := startLHWS(p, tr)
	if err != nil {
		return episode{err: err, attempted: 1, failed: 1}
	}
	ep, dialStart := drive(p, tr, start, srv.target, clients, idle, warm)
	srv.stop()
	ep.stats, ep.peakBridges = srv.stats, srv.peakBridges
	ep.rejected = srv.rejected.Load()
	ep.err = errors.Join(ep.err, srv.err)
	for port, t := range dialStart {
		if hs, ok := srv.handlerStart[port]; ok {
			ep.acceptNS = append(ep.acceptNS, hs-t)
		}
	}
	if ep.err != nil && ep.failed == 0 {
		ep.attempted, ep.failed = ep.attempted+1, ep.failed+1
	}
	return ep
}

func serve(p params, tr *tracer) episode {
	return serveEpisode(p, tr, serveClientsPerWorker*p.workers, 0, warmServe)
}

func serveSparse(p params, tr *tracer) episode {
	return serveEpisode(p, tr, sparseClientsPerWorker*p.workers, idleConns, warmSparse)
}

// baselineNetEcho returns the p50 round trip, in µs, of the same
// generator against netEcho with the same active and idle connections.
func baselineNetEcho(p params, clients, idle, warm int) float64 {
	e, err := startNetEcho()
	if err != nil {
		return 0
	}
	ep, _ := drive(p, nil, time.Now(), e.target, clients, idle, warm)
	e.stop()
	if ep.err != nil || ep.failed > 0 {
		return 0
	}
	return p50(ep.lat) / 1e3
}

// linkRequests joins the two halves of each traced request: the handler's
// top-level spans become children of the client's "request" span with the
// same id, and "io.reply" is added from the handler's Flush call to the
// client holding the full reply. read_wake, handler and reply then
// partition the round trip; io.flush is the server's view of the last
// part and may outlast it.
func linkRequests(spans []span) []span {
	request := make(map[uint64]int32)
	for i, s := range spans {
		if s.Name == "request" {
			request[s.ID] = int32(i)
		}
	}
	for i := range spans {
		s := &spans[i]
		r, ok := request[s.ID]
		if !ok || s.Parent >= 0 || s.Name == "request" {
			continue
		}
		s.Parent = r
		if s.Name == "serve.handler" {
			spans = append(spans, span{Name: "io.reply", Start: s.End, End: spans[r].End, Parent: r, ID: s.ID})
		}
	}
	return spans
}
