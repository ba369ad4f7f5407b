package server

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// promFloat formats a sample value: shortest representation that
// round-trips, no exponent, integers as integers.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// writePromHistogram renders one histogram reading's samples in text
// format 0.0.4: cumulative le-labelled buckets ending at +Inf, then
// _sum and _count (which equals the +Inf bucket: both come from one
// reading).
func writePromHistogram(w io.Writer, name string, r histReading) {
	var cum int64
	for i, b := range r.bounds {
		cum += r.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(b), cum)
	}
	cum += r.counts[len(r.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(r.sumMicro)/1e6))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// WriteProm writes every declared Prometheus family (MetricsSnapshot's
// prom tags) in text exposition format 0.0.4, in declaration order. The
// caller sets Content-Type; the body is self-contained and
// scrape-ready. Values come from one Snapshot, the same consistency
// /metrics JSON offers.
func (m *Metrics) WriteProm(w io.Writer) {
	s := m.Snapshot()
	sv := reflect.ValueOf(&s).Elem()
	fields(sv.Type(), nil, func(f reflect.StructField, index []int) {
		v, label := sv.FieldByIndex(index), f.Tag.Get("label")
		if v.Kind() == reflect.Map && v.Type().Elem().Kind() == reflect.Struct {
			fields(v.Type().Elem(), nil, func(ef reflect.StructField, elem []int) { writePromFamily(w, ef.Tag, label, v, elem) })
		} else {
			writePromFamily(w, f.Tag, label, v, nil)
		}
	})
}

// writePromFamily renders the family a prom tag declares over v: a
// histogram's buckets, one sample per key of a map under label (elem is
// the path of the element field a map of structs exposes), or v's one
// sample. A map without keys yet renders nothing.
func writePromFamily(w io.Writer, tag reflect.StructTag, label string, v reflect.Value, elem []int) {
	name, kind, _ := strings.Cut(tag.Get("prom"), ",")
	if name == "" || v.Kind() == reflect.Map && v.Len() == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, tag.Get("help"), name, kind)
	switch {
	case kind == "histogram":
		writePromHistogram(w, name, v.Interface().(LatencySnapshot).reading)
	case v.Kind() == reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) })
		for _, k := range keys {
			x := v.MapIndex(k)
			if elem != nil {
				x = x.FieldByIndex(elem)
			}
			fmt.Fprintf(w, "%s{%s=%q} %s\n", name, label, k.String(), promFloat(num(x)))
		}
	default:
		fmt.Fprintf(w, "%s %s\n", name, promFloat(num(v)))
	}
}
