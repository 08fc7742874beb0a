package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
}

type runFunc func(t *testing.T, args ...string) (int, string, string)

// testInvalidConfigExitsWithReason pins the CLI's rejection path: a config
// Validate refuses ends the process with status 2 and the one-line reason,
// not a goroutine dump, whether it came from flags or a file and whether
// one run or several were asked for.
func testInvalidConfigExitsWithReason(t *testing.T, run runFunc) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"TTL": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-config", bad},
		{"-config", bad, "-repeat", "2"},
		{"-mode", "hybrid", "-spray"},
		{"-mode", "hybrid", "-spray", "-repeat", "2"},
	} {
		code, stdout, stderr := run(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.HasPrefix(stderr, "netsim: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr is not one netsim: line:\n%s", args, stderr)
		}
		if strings.Contains(stderr, "goroutine") || stdout != "" {
			t.Errorf("%v: unexpected output\nstdout: %s\nstderr: %s", args, stdout, stderr)
		}
	}
}

// testRemovedEngineOption pins both halves of the -engine removal: the flag
// is gone, and a config file dumped while Config still had an Engine field
// ("Engine": "wheel" in the fixture) keeps loading — the key is ignored.
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
