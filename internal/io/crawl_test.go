package io

import (
	"encoding/binary"
	stdio "io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// contents is the synthetic site: the page a url serves, and from which
// its links are derived.
func contents(url uint64) uint64 {
	h := url * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

// TestCrawlDataDependentDials crawls a site over real TCP. Every page is
// a Dial, an 8-byte request and an 8-byte reply from a plain-goroutine
// origin that takes 5 ms per reply, and a page's links are known only
// once its reply arrives, so the dial fan-out is discovered while the
// crawl runs. On two workers the origin must see more fetches in flight
// at once than there are workers, and every page must arrive once with
// its own contents.
func TestCrawlDataDependentDials(t *testing.T) {
	const depth, fanout, workers = 3, 4, 2
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("origin listen: %v", err)
	}
	defer nl.Close()
	var inflight, peak atomic.Int64
	go func() {
		for {
			nc, err := nl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				var w [8]byte
				if _, err := stdio.ReadFull(nc, w[:]); err != nil {
					return
				}
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(5 * time.Millisecond)
				inflight.Add(-1)
				binary.BigEndian.PutUint64(w[:], contents(binary.BigEndian.Uint64(w[:])))
				nc.Write(w[:])
			}()
		}
	}()

	var pages, sum atomic.Uint64
	var crawl func(c *runtime.Ctx, url uint64, d int)
	crawl = func(c *runtime.Ctx, url uint64, d int) {
		cn, err := Dial(c, "tcp", nl.Addr().String())
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], url)
		if _, err := cn.Write(c, w[:]); err != nil {
			t.Errorf("write %d: %v", url, err)
		}
		if err := readFull(c, cn, w[:]); err != nil {
			t.Errorf("read %d: %v", url, err)
		}
		cn.Close()
		page := binary.BigEndian.Uint64(w[:])
		pages.Add(1)
		sum.Add(page)
		if d == depth {
			return
		}
		futs := make([]*runtime.Future, fanout)
		for i := range futs {
			link := page + uint64(i)*0x45d9f3b
			futs[i] = c.Spawn(func(cc *runtime.Ctx) { crawl(cc, link, d+1) })
		}
		for _, f := range futs {
			f.Await(c)
		}
	}
	_, err = runtime.Run(runtime.Config{Workers: workers, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) { crawl(c, 1, 0) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var wantPages, wantSum uint64
	var walk func(url uint64, d int)
	walk = func(url uint64, d int) {
		page := contents(url)
		wantPages++
		wantSum += page
		for i := 0; d < depth && i < fanout; i++ {
			walk(page+uint64(i)*0x45d9f3b, d+1)
		}
	}
	walk(1, 0)
	if pages.Load() != wantPages || sum.Load() != wantSum {
		t.Errorf("crawled %d pages with sum %#x, want %d with %#x", pages.Load(), sum.Load(), wantPages, wantSum)
	}
	t.Logf("%d pages, peak %d fetches in flight at the origin on %d workers", pages.Load(), peak.Load(), workers)
	if peak.Load() <= workers {
		t.Errorf("peak %d fetches in flight, want more than %d workers", peak.Load(), workers)
	}
}
