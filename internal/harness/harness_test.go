package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/commitlog"
	"repro/internal/det"
	"repro/internal/journal"
	"repro/internal/obs"
)

func TestRunIsDeterministic(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallNS != b.WallNS || a.Checksum != b.Checksum {
		t.Fatalf("harness runs differ: wall %d vs %d, sum %x vs %x",
			a.WallNS, b.WallNS, a.Checksum, b.Checksum)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Bench: "nope", Runtime: KindPthreads, Threads: 2}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Options{Bench: "histogram", Runtime: "alien", Threads: 2}); err == nil {
		t.Error("unknown runtime accepted")
	}
	if _, err := Run(Options{Bench: "histogram", Runtime: KindPthreads}); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestBestOverPicksMinimum(t *testing.T) {
	o := Options{Bench: "histogram", Runtime: KindPthreads, Scale: 1, Seed: 1}
	best, err := BestOver(o, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{1, 2, 4} {
		oo := o
		oo.Threads = th
		r, err := Run(oo)
		if err != nil {
			t.Fatal(err)
		}
		if r.WallNS < best.WallNS {
			t.Fatalf("BestOver missed threads=%d (%d < %d)", th, r.WallNS, best.WallNS)
		}
	}
}

func TestRunAllPreservesOrderAndConcurrency(t *testing.T) {
	opts := []Options{
		{Bench: "histogram", Runtime: KindPthreads, Threads: 2, Seed: 1},
		{Bench: "swaptions", Runtime: KindPthreads, Threads: 2, Seed: 1},
		{Bench: "histogram", Runtime: KindConsequenceIC, Threads: 2, Seed: 1},
	}
	rs, err := RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Opts.Bench != opts[i].Bench || r.Opts.Runtime != opts[i].Runtime {
			t.Errorf("result %d out of order: %+v", i, r.Opts)
		}
		if r.WallNS <= 0 {
			t.Errorf("result %d has no wall time", i)
		}
	}
}

func TestModifyAppliesToConsequenceOnly(t *testing.T) {
	called := false
	_, err := Run(Options{
		Bench: "swaptions", Runtime: KindConsequenceIC, Threads: 2, Seed: 1,
		Modify: func(c *det.Config) { called = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("Modify not applied to consequence runtime")
	}
	called = false
	if _, err := Run(Options{
		Bench: "swaptions", Runtime: KindDThreads, Threads: 2, Seed: 1,
		Modify: func(c *det.Config) { called = true },
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("Modify applied to a non-consequence runtime")
	}
}

// JournalPath must attach the divergence journal without changing the
// cell's result, write byte-identical journals for identical options,
// and refuse non-consequence runtimes.
func TestJournalPathOption(t *testing.T) {
	dir := t.TempDir()
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	oj := o
	oj.JournalPath = filepath.Join(dir, "a.csqj")
	a, err := Run(oj)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != plain.Checksum || a.WallNS != plain.WallNS {
		t.Fatalf("journaling perturbed the cell: sum %x vs %x, wall %d vs %d",
			a.Checksum, plain.Checksum, a.WallNS, plain.WallNS)
	}
	oj.JournalPath = filepath.Join(dir, "b.csqj")
	if _, err := Run(oj); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(filepath.Join(dir, "a.csqj"))
	bb, _ := os.ReadFile(filepath.Join(dir, "b.csqj"))
	if len(ba) == 0 || !bytes.Equal(ba, bb) {
		t.Fatalf("identical cells wrote different journal bytes (%d vs %d)", len(ba), len(bb))
	}
	d, err := journal.Load(filepath.Join(dir, "a.csqj"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta["bench"] != "word_count" || d.Meta["threads"] != "4" {
		t.Fatalf("journal meta incomplete: %v", d.Meta)
	}
	if _, err := Run(Options{
		Bench: "histogram", Runtime: KindPthreads, Threads: 2,
		JournalPath: filepath.Join(dir, "p.csqj"),
	}); err == nil {
		t.Error("journaling accepted on a non-consequence runtime")
	}
}

// RunMeta records every key conseq-diff's live re-execution reads back,
// with the effective shard count: 0 and 1 are the same scheduler.
func TestRunMeta(t *testing.T) {
	o := Options{Bench: "kmeans", Runtime: KindConsequenceIC, Threads: 8, Scale: 1, Seed: 42}
	for _, tc := range []struct {
		shards       int
		want, grants string
	}{{0, "1", "false"}, {1, "1", "false"}, {4, "4", "true"}} {
		o.Shards = tc.shards
		m := RunMeta(o)
		want := map[string]string{
			"bench": "kmeans", "runtime": "consequence-ic", "threads": "8", "scale": "1",
			"seed": "42", "shards": tc.want, "shard-grants": tc.grants,
		}
		if !reflect.DeepEqual(m, want) {
			t.Errorf("RunMeta(shards=%d) = %v, want %v", tc.shards, m, want)
		}
	}
}

// CommitLogDir must attach the persistent commit log without changing
// the cell's result, replay to the cell's exact checksum, and refuse
// non-consequence runtimes.
func TestCommitLogDirOption(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ol := o
	ol.CommitLogDir = filepath.Join(t.TempDir(), "clog")
	a, err := Run(ol)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != plain.Checksum || a.WallNS != plain.WallNS {
		t.Fatalf("commit logging perturbed the cell: sum %x vs %x, wall %d vs %d",
			a.Checksum, plain.Checksum, a.WallNS, plain.WallNS)
	}
	st, err := commitlog.Replay(ol.CommitLogDir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checksum() != plain.Checksum {
		t.Fatalf("replayed checksum %016x, cell %016x", st.Checksum(), plain.Checksum)
	}
	if st.Meta()["bench"] != "word_count" || st.Meta()["threads"] != "4" {
		t.Fatalf("commit log meta incomplete: %v", st.Meta())
	}
	if _, err := Run(Options{
		Bench: "histogram", Runtime: KindPthreads, Threads: 2,
		CommitLogDir: filepath.Join(t.TempDir(), "clog"),
	}); err == nil {
		t.Error("commit logging accepted on a non-consequence runtime")
	}
}

func TestWithLRCPopulatesPages(t *testing.T) {
	r, err := Run(Options{
		Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Seed: 3, WithLRC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.LRCPages <= 0 {
		t.Error("LRC tracker recorded nothing")
	}
	if r.Stats.PulledPages <= 0 {
		t.Error("TSO propagation recorded nothing")
	}
}

// Small-sweep figure smoke tests: each figure function runs end to end and
// renders a non-empty table, deterministically.
func TestFiguresSmoke(t *testing.T) {
	s := Sweep{Threads: []int{2, 4}, Scale: 1, Seed: 5}
	t.Run("fig13", func(t *testing.T) {
		t.Parallel()
		data, text, err := Fig13(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != len(Fig13Benches) || !strings.Contains(text, "adaptive-coarsening") {
			t.Error("fig13 incomplete")
		}
	})
	t.Run("fig14", func(t *testing.T) {
		t.Parallel()
		data, _, err := Fig14(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"reverse_index", "ferret"} {
			if data[bench]["adaptive"] <= 0 {
				t.Errorf("%s missing adaptive point", bench)
			}
		}
	})
	t.Run("fig15", func(t *testing.T) {
		t.Parallel()
		data, _, err := Fig15(s)
		if err != nil {
			t.Fatal(err)
		}
		// ferret must be split.
		if _, ok := data["ferret_1"]; !ok {
			t.Error("ferret_1 breakdown missing")
		}
		if _, ok := data["ferret_n"]; !ok {
			t.Error("ferret_n breakdown missing")
		}
		for label, byKind := range data {
			for kind, b := range byKind {
				sum := b.Local + b.DetermWait + b.BarrierWait + b.Commit + b.Fault + b.Lib
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s/%s breakdown sums to %f", label, kind, sum)
				}
			}
		}
	})
	t.Run("fig16", func(t *testing.T) {
		t.Parallel()
		rows, _, err := Fig16(s, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Error("no benchmarks qualified for fig16")
		}
		for _, r := range rows {
			if r.TSOPages <= 0 || r.LRCPages < 0 {
				t.Errorf("%s: bad page counts %+v", r.Bench, r)
			}
		}
	})
}

func TestFig10SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	rows, text, err := Fig10(Sweep{Threads: []int{2}, Scale: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("fig10 has %d rows, want 19", len(rows))
	}
	for _, r := range rows {
		for k, s := range r.Slowdown {
			if s < 0.5 {
				t.Errorf("%s/%s: deterministic runtime faster than half pthreads (%f) — model broken?", r.Bench, k, s)
			}
		}
	}
	if !strings.Contains(text, "five hardest") {
		t.Error("fig10 summary missing")
	}
}

// Replicas must attach a live replica fleet without changing the cell's
// result, pass the follower-checksum determinism gate (including under
// follower chaos), export replica metrics into the cell's observer, and
// refuse to run without a commit log.
func TestReplicasOption(t *testing.T) {
	o := Options{Bench: "word_count", Runtime: KindConsequenceIC, Threads: 4, Scale: 1, Seed: 9}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	or := o
	or.CommitLogDir = filepath.Join(t.TempDir(), "clog")
	or.Replicas = 2
	or.Observer = ob
	a, err := Run(or)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != plain.Checksum || a.WallNS != plain.WallNS {
		t.Fatalf("replica fleet perturbed the cell: sum %x vs %x, wall %d vs %d",
			a.Checksum, plain.Checksum, a.WallNS, plain.WallNS)
	}
	if a.Replica == nil {
		t.Fatal("Result.Replica not populated")
	}
	if a.Replica.Followers != 2 { // serving only; the archive is not counted
		t.Fatalf("fleet had %d serving followers, want 2", a.Replica.Followers)
	}
	found := false
	for _, s := range ob.Registry().Snapshot() {
		if s.Name == "replica_lag" {
			found = true
		}
	}
	if !found {
		t.Error("replica_lag missing from the cell observer's registry")
	}

	oc := o
	oc.CommitLogDir = filepath.Join(t.TempDir(), "clog-chaos")
	oc.Replicas = 2
	oc.Chaos = "follower-kill:3"
	c, err := Run(oc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum != plain.Checksum {
		t.Fatalf("follower chaos perturbed the cell checksum: %x vs %x", c.Checksum, plain.Checksum)
	}

	if _, err := Run(Options{
		Bench: "histogram", Runtime: KindConsequenceIC, Threads: 2, Replicas: 1,
	}); err == nil {
		t.Error("replicas accepted without a commit log")
	}
}
