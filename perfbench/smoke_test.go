package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour:
// every metric it names, with its unit, in the matching mode.
type benchmarkSpec struct {
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

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at a twentieth of its rates for one
// second, untraced and traced: the self-check must pass and every metric
// BENCHMARK.json names must print with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback servers")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl.Name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--scale", "0.05"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("self-check: %+v", res)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" {
					for _, m := range want {
						if v := res.Metrics[m.Name].Value; !(v > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
						}
					}
				}
			})
		}
	}
}

// TestLayerMechanisms pins which mechanisms each workload drives or
// bypasses, from the traced run's counters.
func TestLayerMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback servers")
	}
	layer := func(name string) map[string]metric {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1", "--scale", "0.05"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	mon := layer("monitor")
	if v := mon["selector.evals_per_publish"].Value; v != 2 {
		t.Errorf("monitor: selector.evals_per_publish = %v, want 2", v)
	}
	if v := mon["fanout.tasks_per_publish"].Value; v != 0 {
		t.Errorf("monitor: fanout.tasks_per_publish = %v, want 0", v)
	}
	if v := mon["fanout.inline_ratio"].Value; v != 1 {
		t.Errorf("monitor: fanout.inline_ratio = %v, want 1", v)
	}
	fan := layer("fanout")
	if v := fan["fanout.tasks_per_publish"].Value; v != 1 {
		t.Errorf("fanout: fanout.tasks_per_publish = %v, want 1", v)
	}
	if v := fan["broker.egress_frames_per_flush"].Value; !(v > 1) {
		t.Errorf("fanout: broker.egress_frames_per_flush = %v, want > 1", v)
	}
	rg := layer("rgma")
	if v := rg["rgmacore.evals_per_insert"].Value; v <= 1 || v > 1.25 {
		t.Errorf("rgma: rgmacore.evals_per_insert = %v, want about 1.1", v)
	}
	if v := rg["broker.delivered_per_publish"].Value; v != 0 {
		t.Errorf("rgma: broker traffic %v, want none", v)
	}
	for _, m := range []map[string]metric{mon, fan, rg} {
		if v := m["broker.read_locks_per_publish"].Value + m["rgmacore.read_locks_per_insert"].Value; v != 0 {
			t.Errorf("read-path locks taken: %v", v)
		}
	}
}
