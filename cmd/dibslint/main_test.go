package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDibslint builds the command and returns a runner that drives it as
// a script would, from dir (the module root, for this repository),
// reporting exit status, stdout and stderr.
func buildDibslint(t *testing.T, dir string) func(args ...string) (int, string, string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dibslint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dibslint: %v\n%s", err, out)
	}
	return func(args ...string) (int, string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir // patterns resolve from here
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("running dibslint %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
	}
}

// moduleRoot is this repository's root, relative to the test's directory.
var moduleRoot = filepath.Join("..", "..")

// TestRemovedSARIFOutput pins the removal of the output and rule-selection
// flags: the text format is the only output, every rule always runs, and
// each old flag is a usage error.
func TestRemovedSARIFOutput(t *testing.T) {
	run := buildDibslint(t, moduleRoot)
	for _, flag := range []string{"-sarif", "-json", "-disable=rng-taint"} {
		code, stdout, stderr := run(flag, "./internal/rng")
		name, _, _ := strings.Cut(flag, "=")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("%s: exit %d\nstdout: %s\nstderr: %s", flag, code, stdout, stderr)
		}
	}
}

// TestTypeErrorsExitTwo: a package that does not type-check is a load
// failure. dibslint prints the diagnostic and exits 2 instead of passing
// on whatever it could analyze. The fixture is its own module, so the
// repository's build never sees the ill-typed package.
func TestTypeErrorsExitTwo(t *testing.T) {
	run := buildDibslint(t, filepath.Join("testdata", "illtyped"))
	code, _, stderr := run("./...")
	if code != 2 || !strings.Contains(stderr, "1 type-check diagnostics") || !strings.Contains(stderr, "undefinedAnswer") {
		t.Errorf("ill-typed package: exit %d, want 2 with the diagnostic named\nstderr: %s", code, stderr)
	}
}
