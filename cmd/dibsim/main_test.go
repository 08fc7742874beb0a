package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dibs"
)

// TestCLI builds the command once and drives it as a user would; run
// reports exit status, stdout and stderr.
func TestCLI(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dibsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dibsim: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) (int, string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("running dibsim %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
	}
	t.Run("InvalidConfigExitsWithReason", func(t *testing.T) { testInvalidConfigExitsWithReason(t, run) })
	t.Run("RemovedEngineOption", func(t *testing.T) { testRemovedEngineOption(t, run) })
	t.Run("ConfigRefusesTuningFlags", func(t *testing.T) { testConfigRefusesTuningFlags(t, run) })
	t.Run("ConfigRefusesUnknownKeys", func(t *testing.T) { testConfigRefusesUnknownKeys(t, run) })
	t.Run("FlagDefaultsAreDefaultConfig", func(t *testing.T) { testFlagDefaultsAreDefaultConfig(t, run) })
	t.Run("EventsIndependentOfShards", func(t *testing.T) { testEventsIndependentOfShards(t, run) })
}

type runFunc func(t *testing.T, args ...string) (int, string, string)

// testInvalidConfigExitsWithReason pins the CLI's rejection path: a config
// Validate refuses ends the process with status 2 and one "netsim: ..."
// line per violation, not a goroutine dump, whether it came from flags or a
// file and whether one run or several were asked for. That includes
// geometry and workload bounds the topology and workload constructors
// would otherwise panic on.
func testInvalidConfigExitsWithReason(t *testing.T, run runFunc) {
	dir := t.TempDir()
	file := func(name, json string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bad := file("bad.json", `{"TTL": 1}`)
	for _, tc := range []struct {
		args  []string
		lines int    // one per violation
		want  string // in stderr
	}{
		{[]string{"-config", bad}, 1, "TTL"},
		{[]string{"-config", bad, "-repeat", "2"}, 1, "TTL"},
		{[]string{"-mode", "hybrid", "-spray"}, 1, "PacketSpray"},
		{[]string{"-mode", "hybrid", "-spray", "-repeat", "2"}, 1, "PacketSpray"},
		{[]string{"-config", file("buffer.json", `{"Buffer": "foo"}`)}, 1, `unknown buffer mode "foo"`},
		{[]string{"-config", file("transport.json", `{"Transport": 7}`)}, 1, "unknown transport"},
		{[]string{"-config", file("k3.json", `{"FatTreeK": 3}`)}, 1, "fat-tree K"},
		{[]string{"-k", "4"}, 1, "exceeds responder capacity 15"},
		{[]string{"-config", file("two.json", `{"TTL": 1, "Duration": 0}`)}, 2, "duration"},
		{[]string{"-bufmode", "foo"}, 1, `"foo"`},
		{[]string{"-policy", "probabilistic"}, 1, `unknown detour policy "probabilistic"`},
		{[]string{"-markat", "-1"}, 1, "MarkAtPkts must be >= 0"},
		{[]string{"-markat", "-1", "-dupack", "-3"}, 2, "DupAckThresh must be >= 0"},
	} {
		code, stdout, stderr := run(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if strings.Count(stderr, "netsim: ") != tc.lines || strings.Count(stderr, "\n") != tc.lines ||
			!strings.HasPrefix(stderr, "netsim: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr is not %d netsim: line(s) naming %q:\n%s", tc.args, tc.lines, tc.want, stderr)
		}
		if strings.Contains(stderr, "goroutine") || stdout != "" {
			t.Errorf("%v: unexpected output\nstdout: %s\nstderr: %s", tc.args, stdout, stderr)
		}
	}
}

// testConfigRefusesTuningFlags pins that a config file is the whole run: a
// tuning flag next to -config exits 2 naming it instead of being ignored,
// while the flags that only say what to do with the run still apply.
func testConfigRefusesTuningFlags(t *testing.T, run runFunc) {
	fixture := filepath.Join("testdata", "dumpconfig_with_engine.json")
	code, stdout, stderr := run(t, "-config", fixture, "-ttl", "1")
	if code != 2 || !strings.Contains(stderr, "-ttl") || stdout != "" {
		t.Errorf("-config with -ttl: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if code, _, stderr := run(t, "-config", fixture, "-dumpconfig", out); code != 0 {
		t.Errorf("-config with -dumpconfig: exit %d\nstderr: %s", code, stderr)
	}
}

// testConfigRefusesUnknownKeys pins that a config file key is never
// ignored: a key Config does not have, or a retired key at any value but
// the one an old dump holds, exits 2 naming the key.
func testConfigRefusesUnknownKeys(t *testing.T, run runFunc) {
	dir := t.TempDir()
	for _, tc := range []struct{ json, key string }{
		{`{"SharedAlpha": 2}`, `"SharedAlpha" is no longer a setting`},
		{`{"BGDist": "datamining"}`, `"BGDist" is no longer a setting`},
		{`{"Qps": 1}`, `unknown field "Qps"`},
	} {
		path := filepath.Join(dir, "c.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := run(t, "-config", path)
		if code != 2 || !strings.Contains(stderr, tc.key) || stdout != "" {
			t.Errorf("-config %s: exit %d, want 2 naming %s\nstdout: %s\nstderr: %s", tc.json, code, tc.key, stdout, stderr)
		}
	}
}

// testFlagDefaultsAreDefaultConfig pins that the flags restate no default:
// with no tuning flag, the dumped config is dibs.DefaultConfig.
func testFlagDefaultsAreDefaultConfig(t *testing.T, run runFunc) {
	out := filepath.Join(t.TempDir(), "out.json")
	if code, _, stderr := run(t, "-dumpconfig", out); code != 0 {
		t.Fatalf("-dumpconfig: exit %d\nstderr: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got dibs.Config
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := dibs.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults dump\n%s\nnot DefaultConfig %+v", data, want)
	}
}

// testRemovedEngineOption pins both halves of the -engine removal: the flag
// is gone, and a config file dumped while Config still had an Engine field
// ("Engine": "wheel" in the fixture, beside the other retired keys at their
// dumped values) keeps loading — those keys are dropped.
func testRemovedEngineOption(t *testing.T, run runFunc) {
	if code, _, stderr := run(t, "-engine", "heap"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -engine") {
		t.Errorf("-engine heap: exit %d, stderr:\n%s", code, stderr)
	}
	fixture := filepath.Join("testdata", "dumpconfig_with_engine.json")
	if data, err := os.ReadFile(fixture); err != nil || !bytes.Contains(data, []byte(`"Engine": "wheel"`)) {
		t.Fatalf("fixture %s lost its Engine key (err %v)", fixture, err)
	}
	code, stdout, stderr := run(t, "-config", fixture)
	if code != 0 || !strings.Contains(stdout, "queries 11/11 done") {
		t.Errorf("old dumpconfig file: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// testEventsIndependentOfShards pins -events on the sharded engine: a run
// split over two shards writes the byte-identical event trace, and prints
// the identical results, of the same run on one shard.
func testEventsIndependentOfShards(t *testing.T, run runFunc) {
	dir := t.TempDir()
	var traces [2][]byte
	var stdouts [2]string
	for i, shards := range []string{"1", "2"} {
		path := filepath.Join(dir, "events-"+shards+".jsonl")
		code, stdout, stderr := run(t, "-k", "4", "-degree", "8", "-qps", "400", "-duration", "30ms",
			"-shards", shards, "-events", path)
		if code != 0 {
			t.Fatalf("-shards %s -events: exit %d\nstderr: %s", shards, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(data, []byte(`"kind":"deliver"`)) {
			t.Fatalf("-shards %s: event trace %s unreadable or without deliveries (err %v)", shards, path, err)
		}
		traces[i], stdouts[i] = data, stdout
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Errorf("-shards 2 wrote a different event trace than -shards 1 (%d vs %d bytes)", len(traces[1]), len(traces[0]))
	}
	if stdouts[0] != stdouts[1] {
		t.Errorf("-shards 2 printed different results:\n%s\nvs -shards 1:\n%s", stdouts[1], stdouts[0])
	}
}
