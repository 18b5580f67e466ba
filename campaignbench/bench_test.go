package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at smoke size through the built
// binary. Run it from this directory with `go test ./...`.

func buildBinaries(t *testing.T) (bench, tracecat string) {
	t.Helper()
	dir := t.TempDir()
	bench = filepath.Join(dir, "campaignbench")
	tracecat = filepath.Join(dir, "tracecat")
	for _, args := range [][]string{{"-o", bench, "."}, {"-o", tracecat, "repro/cmd/tracecat"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	return bench, tracecat
}

// runBench runs the binary and returns its exit code, its parsed result
// line (nil if stdout held none) and its stderr.
func runBench(t *testing.T, bin string, args ...string) (int, *result, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("run %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	if last == "" {
		return code, nil, stderr.String()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("run %v: last stdout line is not a result: %q", args, last)
	}
	return code, &res, stderr.String()
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bin, tracecat := buildBinaries(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
				code, res, stderr := runBench(t, bin, "--workload", w.name, "--seed", "7", "--seconds", "1",
					"--trace", trace, "--smoke", "--trace-out", tracePath)
				if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					out, err := exec.Command(tracecat, tracePath).CombinedOutput()
					if err != nil || !strings.Contains(string(out), "campaign") {
						t.Errorf("tracecat on the trace: %v\n%s", err, out)
					}
				}
			})
		}
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	bin, _ := buildBinaries(t)
	code, res, _ := runBench(t, bin, "--workload", "exact-cold", "--seed", "1", "--seconds", "1",
		"--trace", "0", "--smoke", "--perturb-reference", "1e-6")
	if code == 0 {
		t.Fatal("a perturbed reference accuracy passed the output check")
	}
	if res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("result %+v, want correct=false with failures", res)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	bin, _ := buildBinaries(t)
	code, res, stderr := runBench(t, bin, "--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0")
	if code == 0 || res != nil {
		t.Fatalf("unknown workload: exit %d, result %+v", code, res)
	}
	if !strings.Contains(stderr, "unknown workload") {
		t.Errorf("stderr %q does not name the problem", stderr)
	}
}
