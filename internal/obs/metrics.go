package obs

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"sync/atomic"
)

// A metric series is declared once, as a struct field: its Go type is its
// kind and holds its value, its `metric` and `help` tags name and describe it.
//
//	Events obs.Counter `metric:"events_total" help:"Verifier events ingested."`
//
// The owner updates the field (m.Events.Add(1)), readers read it
// (m.Events.Load()), and WriteMetrics renders the struct — so a series
// cannot be counted but not served, or served under two names.
type (
	// Counter is a monotone count; Gauge a value that goes both ways.
	Counter struct{ atomic.Int64 }
	Gauge   struct{ atomic.Int64 }
	// GaugeFunc is a gauge computed when read.
	GaugeFunc func() int64
	// Info is a constant-1 gauge carrying labels: the value is the label
	// list as it appears between the braces.
	Info string
)

// WriteMetrics renders every series declared in the struct v points to in
// Prometheus text format, each name prefixed with prefix. A field that is a
// pointer to another such struct mounts that struct's series under its own
// `metric` tag as a further prefix; a nil pointer renders them all as zero.
// A Hist field takes two more tags: `le`, the largest finite bucket bound
// rendered (bounds are 1, 2, 4, … le), and `per`, how many histogram units
// make one rendered unit (1000 for nanoseconds served as µs).
// It panics on a tagged field of a type it does not know: that is a bug in
// the declaration, caught by any test that scrapes.
func WriteMetrics(w io.Writer, prefix string, v any) {
	sv := reflect.ValueOf(v).Elem()
	for i := 0; i < sv.NumField(); i++ {
		tag := sv.Type().Field(i).Tag
		name, ok := tag.Lookup("metric")
		if !ok {
			continue
		}
		name = prefix + name
		f := sv.Field(i)
		if f.Kind() == reflect.Pointer {
			if f.IsNil() {
				f = reflect.New(f.Type().Elem())
			}
			WriteMetrics(w, name, f.Interface())
			continue
		}
		head := func(kind string) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, tag.Get("help"), name, kind)
		}
		switch m := f.Addr().Interface().(type) {
		case *Counter:
			head("counter")
			fmt.Fprintf(w, "%s %d\n", name, m.Load())
		case *Gauge:
			head("gauge")
			fmt.Fprintf(w, "%s %d\n", name, m.Load())
		case *GaugeFunc:
			head("gauge")
			fmt.Fprintf(w, "%s %d\n", name, (*m)())
		case *Info:
			head("gauge")
			fmt.Fprintf(w, "%s{%s} 1\n", name, *m)
		case *Hist:
			head("histogram")
			s, per := m.Snapshot(), tagInt(tag, "per")
			for b, top := int64(1), tagInt(tag, "le"); b <= top; b <<= 1 {
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, s.CountLE(b*per))
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				name, s.Count, name, s.Sum/per, name, s.Count)
		default:
			panic(fmt.Sprintf("obs: metric %s declared on a %T", name, m))
		}
	}
}

func tagInt(tag reflect.StructTag, key string) int64 {
	n, err := strconv.ParseInt(tag.Get(key), 10, 64)
	if err != nil || n <= 0 {
		panic(fmt.Sprintf("obs: tag %s:%q is not a positive integer", key, tag.Get(key)))
	}
	return n
}
