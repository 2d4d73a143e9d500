package runtime

import (
	"fmt"
	"testing"
)

// Microbenchmarks for the per-quantum hot path: spawn/await ladders (with
// and without a result), MapReduce, wide fan-outs, resume storms through
// channels, and steal-heavy skew. Each
// benchmark runs its measured loop inside the root task of a single Run so
// worker-pool setup is outside the timed region; ReportAllocs makes
// allocs/op part of the regression record (see EXPERIMENTS.md "Runtime
// overheads" and make bench-runtime).

func benchConfig(workers int) Config {
	return Config{Workers: workers, Mode: LatencyHiding, Seed: 1}
}

// benchLeaf is package-level so spawning it never allocates a closure;
// ladder and fan-out benchmarks measure runtime overhead, not user work.
var benchLeaf = func(*Ctx) {}

// benchSpin is a small CPU-bound leaf for steal benchmarks: enough work
// that thieves keep up with the spawner, little enough that scheduling
// cost still dominates.
var benchSpin = func(*Ctx) {
	x := uint64(88172645463325252)
	for i := 0; i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
}

var spinSink uint64

// BenchmarkSpawnAwaitLadder is the serial spawn/await ladder: one rung
// spawns a leaf child and immediately awaits it. The child is still at the
// bottom of the spawner's deque, so every rung pays one spawn, one pop and
// one function call — the cost of a light edge, a join on unstolen work.
func BenchmarkSpawnAwaitLadder(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := Run(benchConfig(p), func(c *Ctx) {
				for i := 0; i < 64; i++ { // warm pools before measuring
					c.Spawn(benchLeaf).Await(c)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Spawn(benchLeaf).Await(c)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSpawnValue is the ladder with a result: one rung is a
// SpawnValue of a package-level function and its Await, joined inline.
// The Value is the rung's one allocation.
func BenchmarkSpawnValue(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := Run(benchConfig(p), func(c *Ctx) {
				for i := 0; i < 64; i++ { // warm pools before measuring
					SpawnValue(c, benchValueLeaf).Await(c)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SpawnValue(c, benchValueLeaf).Await(c)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMapReduce is the library's fork-join primitive: an op is one
// MapReduce over 64 elements with a package-level mapper and reduce, so
// 63 splits, each spawning one record.
func BenchmarkMapReduce(b *testing.B) {
	const n = 64
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := Run(benchConfig(p), func(c *Ctx) {
				for i := 0; i < 4; i++ { // warm pools before measuring
					MapReduce(c, 0, n, 0, benchMapItem, benchSum)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MapReduce(c, 0, n, 0, benchMapItem, benchSum)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchFanout spawns batches of `fan` leaves and joins the whole batch,
// reusing one future slice; an op is one spawned task.
func benchFanout(b *testing.B, workers, fan int, leaf func(*Ctx)) {
	b.ReportAllocs()
	_, err := Run(benchConfig(workers), func(c *Ctx) {
		futs := make([]*Future, fan)
		for i := 0; i < fan; i++ { // warm pools before measuring
			futs[i] = c.Spawn(leaf)
		}
		for i := 0; i < fan; i++ {
			futs[i].Await(c)
		}
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := fan
			if b.N-done < n {
				n = b.N - done
			}
			for i := 0; i < n; i++ {
				futs[i] = c.Spawn(leaf)
			}
			for i := 0; i < n; i++ {
				futs[i].Await(c)
			}
			done += n
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWideFanout measures bulk spawning: 256-wide batches of empty
// leaves, joined batch-at-a-time.
func BenchmarkWideFanout(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			benchFanout(b, p, 256, benchLeaf)
		})
	}
}

// BenchmarkStealHeavySkew skews all spawning onto worker 0 with leaves
// that spin briefly, so the other workers live on the steal path: victim
// snapshot, PopTop, deque adoption.
func BenchmarkStealHeavySkew(b *testing.B) {
	b.Run("workers=4", func(b *testing.B) {
		benchFanout(b, 4, 512, benchSpin)
	})
}

// BenchmarkResumeStorm is the bulk-injection workload: stormWidth consumer
// tasks sit suspended on a channel; an op delivers stormWidth values —
// waking every consumer, whose re-injections batch on their home deques —
// then drains the consumers' acks. Consumers are spawned once, outside the
// timed region.
func BenchmarkResumeStorm(b *testing.B) {
	const storm = 32
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := Run(benchConfig(p), func(c *Ctx) {
				work := NewChan[int](0)
				ack := NewChan[int](0)
				futs := make([]*Future, storm)
				for i := 0; i < storm; i++ {
					futs[i] = c.Spawn(func(cc *Ctx) {
						for {
							v, ok := work.RecvOK(cc)
							if !ok {
								return
							}
							ack.Send(cc, v)
						}
					})
				}
				round := func() {
					for i := 0; i < storm; i++ {
						work.Send(c, i)
					}
					for i := 0; i < storm; i++ {
						ack.Recv(c)
					}
				}
				round() // warm pools and park every consumer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
				b.StopTimer()
				work.Close()
				for i := 0; i < storm; i++ {
					futs[i].Await(c)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
