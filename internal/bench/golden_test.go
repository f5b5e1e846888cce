package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestTableGoldens pins the message-protocol tables byte-for-byte, the
// same way TestObsGolden pins E18: E6 (protocols), E19 (rendezvous) and
// E23 (remap) run entirely in virtual time, so any drift means the
// protocol state machine or the cost model under it changed, and the
// golden must be regenerated deliberately with -update.
func TestTableGoldens(t *testing.T) {
	tables := []struct {
		name string
		run  func(io.Writer) error
	}{
		{"protocols", Protocols},
		{"rendezvous", Rendezvous},
		{"remap", Remap},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s table drifted from golden file.\ngot:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}
