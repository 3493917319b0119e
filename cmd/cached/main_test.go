package main

import (
	"io/fs"
	"net"
	"path/filepath"
	"testing"
)

// TestServeBusyPortLeavesNoWAL: a start that cannot bind must fail before
// it creates the WAL, or the next start refuses the directory it left
// behind unless told to -recover.
func TestServeBusyPortLeavesNoWAL(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	code := run([]string{"serve", "-addr", busy.Addr().String(), "-wal", dir,
		"-k", "64", "-shards", "2", "-tenants", "2", "-log-format", "json"})
	if code != 1 {
		t.Fatalf("serve on a busy port exited %d, want 1", code)
	}
	var segs []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && filepath.Ext(path) == ".seg" {
			segs = append(segs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 0 {
		t.Fatalf("busy port left WAL segments behind: %v", segs)
	}
}
