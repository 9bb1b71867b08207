package server

import (
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
)

// scrapeAfterTraffic serves one avoid and one detect session, lets every
// stage observation land, and returns the /metrics body.
func scrapeAfterTraffic(t *testing.T, cfg Config) string {
	t.Helper()
	s := testServer(t, cfg)
	for _, mode := range []core.Mode{core.ModeAvoid, core.ModeDetect} {
		c := dialTest(t, s, client.Config{Session: "scrape-" + mode.String(), Mode: mode})
		for i := int64(1); i <= 20; i++ {
			if err := c.Block(status(i, []deps.Resource{res(i, 1)}, []deps.Reg{reg(i, 1)})); err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	return httpGet(t, h.URL+"/metrics", 200)
}

// TestMetricsGoldenAndWellFormed pins the wire contract over the real
// handler, archiving off and on. The sorted `# TYPE <name> <kind>` lines must
// equal testdata/metrics_types.golden — the file CI's server-smoke job diffs
// the live binary against — so adding, renaming or re-kinding a series fails
// until the golden says the same. And the text must be well formed: a sample
// belongs to the family whose HELP and TYPE lines precede it, no family is
// repeated or empty, buckets are cumulative and end in +Inf equal to _count.
func TestMetricsGoldenAndWellFormed(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?\d+)$`)
	for name, cfg := range map[string]Config{"archive off": {}, "archive on": {SegmentDir: t.TempDir()}} {
		lines := strings.Split(strings.TrimSuffix(scrapeAfterTraffic(t, cfg), "\n"), "\n")
		var types []string
		seen := map[string]bool{}
		var family, kind string
		samples := 1              // of the current family
		var lastBucket, inf int64 // of the current histogram
		for i := 0; i < len(lines); i++ {
			line := lines[i]
			if strings.HasPrefix(line, "# HELP ") {
				if samples == 0 {
					t.Errorf("%s: %s has no samples", name, family)
				}
				family = strings.Fields(line)[2]
				if seen[family] {
					t.Errorf("%s: %s declared twice", name, family)
				}
				seen[family] = true
				i++
				f := strings.Fields(lines[i])
				if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" || f[2] != family {
					t.Fatalf("%s: HELP of %s followed by %q, want its TYPE", name, family, lines[i])
				}
				types = append(types, lines[i])
				kind, samples, lastBucket, inf = f[3], 0, 0, -1
				continue
			}
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: unparseable line %q", name, line)
			}
			v, _ := strconv.ParseInt(m[3], 10, 64) // the regexp admits only integers
			samples++
			switch {
			case kind != "histogram":
				if m[1] != family || samples > 1 {
					t.Errorf("%s: sample %q under %s %s", name, line, kind, family)
				}
			case m[1] == family+"_bucket":
				if v < lastBucket {
					t.Errorf("%s: %q is below the previous bucket (%d)", name, line, lastBucket)
				}
				lastBucket = v
				if m[2] == `{le="+Inf"}` {
					inf = v
				}
			case m[1] == family+"_count":
				if v != inf || v == 0 {
					t.Errorf("%s: %s_count = %d, +Inf bucket = %d, want equal and observed", name, family, v, inf)
				}
			case m[1] != family+"_sum":
				t.Errorf("%s: sample %q under histogram %s", name, line, family)
			}
		}
		sort.Strings(types)
		if got := strings.Join(types, "\n") + "\n"; got != string(golden) {
			t.Errorf("%s: /metrics serves\n%s\ntestdata/metrics_types.golden has\n%s", name, got, golden)
		}
	}
}

// TestEverySeriesDocumented ties each served series to docs/OPERATIONS.md:
// a series an operator cannot look up is either undocumented or unneeded.
func TestEverySeriesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/metrics_types.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if name := strings.Fields(line)[2]; !strings.Contains(string(doc), "`"+name+"`") &&
			!strings.Contains(string(doc), "`"+name+"{") {
			t.Errorf("docs/OPERATIONS.md does not mention `%s`", name)
		}
	}
}
