package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// runOutput is what compare reads back from a saved benchmark output.
type runOutput struct {
	manifest manifest
	result   struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

func readOutput(path string) (runOutput, error) {
	var o runOutput
	f, err := os.Open(path)
	if err != nil {
		return o, err
	}
	defer f.Close()
	var found bool
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m, ok := strings.CutPrefix(line, "manifest "); ok {
			if err := json.Unmarshal([]byte(m), &o.manifest); err != nil {
				return o, fmt.Errorf("%s: manifest: %w", path, err)
			}
			found = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return o, err
	}
	if !found {
		return o, fmt.Errorf("%s: no manifest line", path)
	}
	if err := json.Unmarshal([]byte(last), &o.result); err != nil {
		return o, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return o, nil
}

// compare prints the change of every metric between two saved outputs of
// the benchmark. It refuses, with exit code 1, when their manifests'
// comparison keys differ, naming the fields that differ.
func compare(oldPath, newPath string, stdout, stderr io.Writer) int {
	a, err := readOutput(oldPath)
	if err == nil {
		var b runOutput
		b, err = readOutput(newPath)
		if err == nil {
			return compareOutputs(a, b, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

func compareOutputs(a, b runOutput, stdout, stderr io.Writer) int {
	if a.manifest.Key != b.manifest.Key {
		fmt.Fprintf(stderr, "perfbench compare: not comparable: manifests differ in %s\n",
			strings.Join(manifestDiff(a.manifest, b.manifest), ", "))
		return 1
	}
	if !a.result.Correct || !b.result.Correct {
		fmt.Fprintln(stderr, "perfbench compare: warning: a result is marked incorrect")
	}
	fmt.Fprintf(stdout, "%s: %s (seed %d) -> %s (seed %d)\n", a.manifest.Workload,
		a.manifest.Commit, a.manifest.Seed, b.manifest.Commit, b.manifest.Seed)
	var names []string
	for n := range a.result.Metrics {
		if _, ok := b.result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.result.Metrics[n], b.result.Metrics[n]
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		fmt.Fprintf(stdout, "%-30s %14.6g -> %14.6g %-8s %s\n", n, x.Value, y.Value, x.Unit, change)
	}
	return 0
}

// manifestDiff names the comparison-key fields on which a and b differ.
func manifestDiff(a, b manifest) []string {
	var out []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		switch f.Name {
		case "Commit", "SourceDigest", "Seed", "Key":
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s (%v vs %v)", f.Tag.Get("json"), va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return out
}
