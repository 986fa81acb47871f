package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableWrite(t *testing.T) {
	tab := New("Demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("beta-long-name", 123456.0)
	tab.AddNote("a footnote with %d arg", 1)

	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "1.500", "1.23e+05", "note: a footnote with 1 arg"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Column alignment: header and first row should share the separator width.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.5:     "0.500",
		150:     "150.0",
		1e6:     "1e+06",
		0.00001: "1e-05",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v)=%q want %q", in, got, want)
		}
	}
}
