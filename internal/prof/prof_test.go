package prof

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Both profiles are written at stop in pprof's gzipped protobuf format.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	var sink []byte
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024)...)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes without the gzip magic", filepath.Base(path), len(b))
		}
	}
}

func TestStartRefusesUncreatableCPUPath(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	if stop, err := Start(cpu, ""); err == nil {
		stop()
		t.Fatalf("Start(%q) succeeded", cpu)
	}
}
