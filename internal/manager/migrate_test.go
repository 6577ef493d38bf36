package manager

import (
	"errors"
	"testing"
)

// TestImportRejections pins the safety edges: a resident id conflicts
// (the receiver never clobbers live state), a corrupt snapshot is
// refused, and a bundle whose envelope names another stream is refused.
func TestImportRejections(t *testing.T) {
	src := New(Options{})
	if _, err := src.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, src, "plant", makeCols(5, 60))
	exp, err := src.Export("plant")
	if err != nil {
		t.Fatal(err)
	}

	dst := New(Options{})
	if _, err := dst.Create("plant", 8, testConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(exp); !errors.Is(err, ErrExists) {
		t.Errorf("Import over resident stream = %v, want ErrExists", err)
	}

	fresh := New(Options{})
	if _, err := fresh.Import(StreamExport{ID: "bad id", Snapshot: exp.Snapshot}); !errors.Is(err, ErrBadID) {
		t.Errorf("Import bad id = %v, want ErrBadID", err)
	}
	corrupt := StreamExport{ID: "plant", Snapshot: append([]byte(nil), exp.Snapshot...)}
	corrupt.Snapshot[len(corrupt.Snapshot)/2] ^= 0xff
	if _, err := fresh.Import(corrupt); err == nil {
		t.Error("Import accepted a corrupt snapshot")
	}
	renamed := StreamExport{ID: "other", Snapshot: exp.Snapshot}
	if _, err := fresh.Import(renamed); err == nil {
		t.Error("Import accepted a bundle whose snapshot names another stream")
	}
}
