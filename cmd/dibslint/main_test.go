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

// TestDisableValidatesRuleIDs: -disable of an ID that -rules does not list
// (a typo, or a rule since retired) is a usage error naming the ID, not a
// silent no-op.
func TestDisableValidatesRuleIDs(t *testing.T) {
	run := buildDibslint(t, moduleRoot)
	retired := []string{"vtime-flow", "path-droppederr", "mutable-globals"}
	for _, id := range append([]string{"no-such-rule", "float-equal"}, retired...) {
		code, stdout, stderr := run("-disable=float-eq,"+id, "./internal/rng")
		if code != 2 || stdout != "" {
			t.Errorf("-disable=%s: exit %d, stdout %q; want exit 2 and no findings", id, code, stdout)
		}
		if !strings.Contains(stderr, `"`+id+`"`) || !strings.Contains(stderr, "-rules") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-disable=%s: stderr should be one line naming the ID and pointing at -rules:\n%s", id, stderr)
		}
	}

	if code, stdout, stderr := run("-disable=float-eq, lint-staleignore", "./internal/stats"); code != 0 || stdout != "" {
		t.Errorf("-disable of known rules: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestRemovedSARIFOutput pins the removal of -sarif: -json is the one
// machine-readable format, and the old flag is a usage error.
func TestRemovedSARIFOutput(t *testing.T) {
	run := buildDibslint(t, moduleRoot)
	code, stdout, stderr := run("-sarif", "./internal/rng")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: -sarif") {
		t.Errorf("-sarif: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
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
