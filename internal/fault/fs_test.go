package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestParseFSSpec(t *testing.T) {
	cfg, err := ParseFSSpec("seed=7,write_err_p=0.25,short_p=0.5,sync_err_p=0.1,crash_at=42")
	if err != nil {
		t.Fatalf("ParseFSSpec: %v", err)
	}
	if cfg.Seed != 7 || cfg.WriteErrProb != 0.25 || cfg.ShortWriteProb != 0.5 || cfg.SyncErrProb != 0.1 || cfg.CrashAtWrite != 42 {
		t.Fatalf("parsed %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("spec should be enabled")
	}
	if c, err := ParseFSSpec(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"nope=1", "write_err_p=2", "write_err_p", "crash_at=x"} {
		if _, err := ParseFSSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// collectFaults drives n writes through a fresh FaultFS and records which
// ones faulted.
func collectFaults(t *testing.T, dir string, cfg FSConfig, n int) []string {
	t.Helper()
	fs := NewFS(OSFS, cfg, nil)
	f, err := fs.Append(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	defer f.Close()
	out := make([]string, 0, n)
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		_, err := f.Write(buf)
		switch {
		case err == nil:
			out = append(out, "ok")
		case errors.Is(err, ErrCrashed):
			out = append(out, "crashed")
		default:
			out = append(out, err.Error())
		}
	}
	return out
}

func TestFaultFSDeterministic(t *testing.T) {
	cfg := FSConfig{Seed: 99, WriteErrProb: 0.2, ShortWriteProb: 0.3}
	a := collectFaults(t, t.TempDir(), cfg, 200)
	b := collectFaults(t, t.TempDir(), cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("write %d: run A %q, run B %q", i, a[i], b[i])
		}
	}
	var faults int
	for _, s := range a {
		if s != "ok" {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("want a mix of faults and successes, got %d/%d faults", faults, len(a))
	}
}

func TestFaultFSCrashAtWrite(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(OSFS, FSConfig{Seed: 1, CrashAtWrite: 3}, nil)
	name := filepath.Join(dir, "wal")
	f, err := fs.Append(name)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	payload := []byte("0123456789")
	for i := 0; i < 2; i++ {
		if _, err := f.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// The third write is torn: a strict prefix lands, the call errors, and
	// the filesystem is dead afterwards.
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("crash write should error")
	}
	if n >= len(payload) {
		t.Fatalf("crash write wrote %d of %d bytes, want a strict prefix", n, len(payload))
	}
	if !fs.Crashed() {
		t.Fatal("fs should report crashed")
	}
	if _, err := f.Write(payload); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v, want ErrCrashed", err)
	}
	if _, err := fs.Append(name); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append: %v, want ErrCrashed", err)
	}
	st, err := os.Stat(name)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	want := int64(2*len(payload) + n)
	if st.Size() != want {
		t.Fatalf("file holds %d bytes, want %d (two full writes + torn prefix)", st.Size(), want)
	}
	// Reads still pass through: recovery must be able to inspect the wreck.
	if _, err := fs.Open(name); err != nil {
		t.Fatalf("post-crash open: %v", err)
	}
}

func TestFaultFSShortWritePrefix(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(OSFS, FSConfig{Seed: 5, ShortWriteProb: 1}, nil)
	f, err := fs.Append(filepath.Join(dir, "short"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	defer f.Close()
	payload := []byte("abcdefghij")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("short write should error")
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("short write landed %d bytes of %d, want a strict prefix", n, len(payload))
	}
	st, _ := os.Stat(filepath.Join(dir, "short"))
	if st.Size() != int64(n) {
		t.Fatalf("file holds %d bytes, write reported %d", st.Size(), n)
	}
}

func TestOSFSReadDirSorted(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.seg", "a.seg", "c.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := OSFS.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := []string{"a.seg", "b.seg", "c.seg"}
	if len(names) != len(want) {
		t.Fatalf("ReadDir = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
}
