package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/det"
	"repro/internal/host/realhost"
)

// benchmarkFile is the part of BENCHMARK.json the self-test holds the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark for a handful of iterations and parses the
// result object on its last line.
func runBench(t *testing.T, args ...string) (int, output) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--seconds", "0.2", "--scratch", t.TempDir(), "--root", ".."}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%v: last line is not a result (%v)\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, out
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNamesUnique checks that BENCHMARK.json uses each workload and
// metric name once; the other tests read the names into maps, which would
// merge a repeat silently.
func TestNamesUnique(t *testing.T) {
	f := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if seen[name] {
			t.Errorf("BENCHMARK.json names %s twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
	}
	for _, m := range f.EndToEnd {
		check(m.Name)
	}
	for _, m := range f.PerLayer {
		check(m.Name)
	}
}

// TestEmitsEveryMetric runs every workload of BENCHMARK.json, untraced
// and traced, and checks that each run is correct and prints exactly the
// metrics the file names, each with its unit. The untraced runs also use
// a held-out seed, so the workloads are not tuned to the default input.
func TestEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, c := range []struct{ seed, trace string }{
			{"42", "0"},
			{"7", "0"},
			{"42", "1"},
		} {
			want := map[string]string{}
			if c.trace == "0" {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			code, out := runBench(t, "--workload", w.Name, "--seed", c.seed, "--trace", c.trace)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s seed %s trace %s: exit %d, correct %v, %d of %d failed",
					w.Name, c.seed, c.trace, code, out.Correct, out.Failed, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, c.trace, len(out.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := out.Metrics[name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace %s: metric %s missing", w.Name, c.trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.Name, c.trace, name, m.Unit, unit)
				case c.trace == "0" && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, *m.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFails shows the result check works: with the
// reference checksum flipped, every run fails and the benchmark exits
// non-zero.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range []string{"sync-heavy", "durable-serve"} {
		code, out := runBench(t, "--workload", w, "--corrupt-reference")
		if code == 0 || out.Correct || out.Failed == 0 || out.Failed != out.Attempted {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed; want every run failed and a non-zero exit",
				w, code, out.Correct, out.Failed, out.Attempted)
		}
	}
}

// TestCheckReplicasFails shows the follower checks work on a finished
// fleet: they pass as they are, and fail against a wrong reference
// checksum and on a read whose page does not match the archive.
func TestCheckReplicasFails(t *testing.T) {
	w, err := workloadByName("durable-serve")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(w, 42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := det.New(b.cfg, realhost.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.persist(rt, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if err := rt.Run(b.prog.Prog(b.params)); err != nil {
		t.Fatal(err)
	}
	final := rt.Segment().Head()
	if err := p.settle(final, nil); err != nil {
		t.Fatal(err)
	}
	good := read{version: final, page: 1}
	page, err := p.fl.ReadAt(good.version, good.page)
	if err != nil {
		t.Fatal(err)
	}
	good.sum = pageSum(page)
	if err := b.checkReplicas(p.fl, []read{good}); err != nil {
		t.Fatalf("correct fleet and read: %v", err)
	}
	bad := good
	bad.sum ^= 1
	if err := b.checkReplicas(p.fl, []read{bad}); err == nil {
		t.Error("a read that differs from the archive passed the check")
	}
	b.ref ^= 1
	if err := b.checkReplicas(p.fl, []read{good}); err == nil {
		t.Error("followers passed the check against a wrong reference checksum")
	}
}

// TestRejectedReadsCount checks that a rejected read counts as rejected
// and as missing any latency limit: with most reads rejected, the median
// read latency is infinite.
func TestRejectedReadsCount(t *testing.T) {
	var rm readMetrics
	rm.add([]read{
		{latest: true, latNS: 1000, callNS: 500},
		{latest: true, rejected: true, latNS: 10, callNS: 10},
		{latest: false, rejected: true, latNS: 10, callNS: 10},
	}, 1e9)
	if got := rm.rejectFrac(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("reject fraction %v, want 2/3", got)
	}
	if got := rm.latencyUS(); !math.IsInf(got, 1) {
		t.Errorf("median latency with 2 of 3 reads rejected = %v us, want +Inf", got)
	}
}

// TestCompareRefusesOtherManifests checks that two outputs are compared
// only when their manifests agree on everything but commit and seed.
func TestCompareRefusesOtherManifests(t *testing.T) {
	b, err := newBench(workloads[0], 42, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := newManifest(b, "..", false)
	if err != nil {
		t.Fatal(err)
	}
	b.params.Seed = 7
	m2, err := newManifest(b, "..", false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Key != m2.Key {
		t.Fatalf("seed changed the comparison key: %s vs %s", m1.Key, m2.Key)
	}
	b.cfg.WriteSetPrediction = false
	m3, err := newManifest(b, "..", false)
	if err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := compareOutputs(runOutput{manifest: m1}, runOutput{manifest: m2}, &out, &errs); code != 0 {
		t.Errorf("same key: exit %d (%s)", code, errs.String())
	}
	errs.Reset()
	if code := compareOutputs(runOutput{manifest: m1}, runOutput{manifest: m3}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "config_digest") {
		t.Errorf("other config: exit %d, stderr %q; want exit 1 naming config_digest", code, errs.String())
	}
}
