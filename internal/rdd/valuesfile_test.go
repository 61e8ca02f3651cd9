package rdd

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadValuesFileFormats(t *testing.T) {
	cases := []struct {
		name    string
		content string
		want    Trace
	}{
		{"newline", "5\n5\n8\n3\n", Trace{5, 5, 8, 3}},
		{"csv-row", "5, 5, 8, 3\n", Trace{5, 5, 8, 3}},
		{"mixed-with-comments", "# recorded budgets\n5,5\n\n8\n3\n", Trace{5, 5, 8, 3}},
		{"no-trailing-newline", "1.5\n2.25", Trace{1.5, 2.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadValuesFile(writeTrace(t, tc.content))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestReadValuesFileErrors(t *testing.T) {
	if _, err := ReadValuesFile(filepath.Join(t.TempDir(), "absent.csv")); err == nil {
		t.Error("missing file read succeeded")
	}
	if _, err := ReadValuesFile(writeTrace(t, "# only comments\n\n")); err == nil || !strings.Contains(err.Error(), "no budgets") {
		t.Errorf("empty trace error = %v", err)
	}
	if _, err := ReadValuesFile(writeTrace(t, "5\nnot-a-number\n")); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("bad budget error should cite the line: %v", err)
	}
	if _, err := ReadValuesFile(writeTrace(t, "5\n-1\n")); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative budget error = %v", err)
	}
}

func TestValuesFileTraceKind(t *testing.T) {
	path := writeTrace(t, "5\n5\n8\n3\n")
	tr, err := TraceSpec{Kind: "values-file", Path: path}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, Trace{5, 5, 8, 3}) {
		t.Errorf("built %v", tr)
	}
	// Frames, when given, must agree with the recorded length.
	if _, err := (TraceSpec{Kind: "values-file", Path: path, Frames: 4}).Build(); err != nil {
		t.Errorf("matching frames rejected: %v", err)
	}
	if _, err := (TraceSpec{Kind: "values-file", Path: path, Frames: 7}).Build(); err == nil {
		t.Error("contradictory frames accepted")
	}
	if _, err := (TraceSpec{Kind: "values-file"}).Build(); err == nil || !strings.Contains(err.Error(), "path") {
		t.Errorf("pathless spec error = %v", err)
	}
	// Recorded budgets are absolute: the catalog-relative scale must not
	// touch them.
	spec := TraceSpec{Kind: "values-file", Path: path}
	if got := spec.WithBudgetScale(10, 20); got.Lo != 0 || got.Hi != 0 {
		t.Errorf("WithBudgetScale rewrote a values-file spec: %+v", got)
	}
	// The kind is registered and listed.
	found := false
	for _, k := range TraceKinds() {
		if k == "values-file" {
			found = true
		}
	}
	if !found {
		t.Errorf("values-file missing from TraceKinds %v", TraceKinds())
	}
}

// TestReadValuesFileRejectsNonFinite: strconv.ParseFloat accepts every
// spelling of NaN and the infinities, and NaN passes a "v < 0" check, so
// each must be refused explicitly, naming the offending field and line.
func TestReadValuesFileRejectsNonFinite(t *testing.T) {
	for _, field := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-infinity"} {
		t.Run(field, func(t *testing.T) {
			_, err := ReadValuesFile(writeTrace(t, "5\n4, "+field+"\n"))
			if err == nil || !strings.Contains(err.Error(), ":2:") || !strings.Contains(err.Error(), `"`+field+`"`) ||
				!strings.Contains(err.Error(), "not finite") {
				t.Errorf("error = %v, want a not-finite error citing line 2 and %q", err, field)
			}
		})
	}
}
