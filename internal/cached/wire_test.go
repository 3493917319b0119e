package cached

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseBatchLineLimit checks the one bound the fuzz target cannot reach:
// maxBatchLines lines parse, one more is refused, blank or not.
func TestParseBatchLineLimit(t *testing.T) {
	blank := bytes.Repeat([]byte("\n"), maxBatchLines)
	if reqs, err := ParseBatch(blank, 1); err != nil || len(reqs) != 0 {
		t.Fatalf("%d blank lines: %d requests, error %v", maxBatchLines, len(reqs), err)
	}
	for _, extra := range []string{"\n", "GET 0 a"} {
		body := append(append([]byte(nil), blank...), extra...)
		_, err := ParseBatch(body, 1)
		_, want := parseLines(body, 1)
		if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("line %d %q: error %v, line by line %v", maxBatchLines+1, extra, err, want)
		}
	}
}
