package config

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode"
)

// Knob describes one patchable configuration field: the canonical dotted
// path accepted by Set (and the -set flags), the value type, the
// hostile-config bounds Validate enforces, and the baseline preset's
// value. The enumeration is the machine-readable answer to "what can I
// put in a -set flag or a configPatch" — GET /v1/knobs serves it, and
// the design-space explorer derives its search lattice from it.
type Knob struct {
	// Path is the canonical dotted knob path, e.g. "l1.mshr_entries".
	// Set matches paths case-insensitively ignoring underscores and
	// dashes, so any respelling of Path names the same knob.
	Path string `json:"path"`
	// Type is the value class: "int", "float", "bool", "string" or
	// "mode" (the Mode enum, set by name).
	Type string `json:"type"`
	// Min and Max bound numeric knobs, mirroring Validate's
	// hostile-config caps. Max is omitted (0) for the few unbounded
	// knobs; clock knobs exclude zero. Cross-field constraints (bank
	// divisibility, matching line sizes, ...) still apply on top.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Baseline is the baseline preset's value, in Set's textual form.
	Baseline string `json:"baseline"`
}

// knobBound mirrors one Validate cap for the knob table. max 0 means
// unbounded (only MaxCycles).
type knobBound struct{ min, max float64 }

// knobBounds maps canonical knob paths to the bounds Validate enforces.
// Every numeric knob must have an entry — TestKnobBoundsComplete pins
// that, so adding a Config field without deciding its bounds fails fast.
var knobBounds = map[string]knobBound{
	"core.num_cores":            {1, maxCores},
	"core.warps_per_core":       {1, maxWarps},
	"core.clock_mhz":            {0, maxClockMHz},
	"core.issue_width":          {1, 1},
	"core.mem_pipeline_width":   {1, maxQueueEntries},
	"core.alu_latency":          {0, maxLatency},
	"l1.size_bytes":             {1, maxCacheBytes},
	"l1.line_bytes":             {1, maxLineBytes},
	"l1.ways":                   {1, maxWays},
	"l1.mshr_entries":           {1, maxQueueEntries},
	"l1.mshr_max_merge":         {0, maxQueueEntries},
	"l1.miss_queue_entries":     {0, maxQueueEntries},
	"l1.hit_latency":            {0, maxLatency},
	"l1.response_fifo":          {0, maxQueueEntries},
	"l1.icache_size_bytes":      {1, maxCacheBytes},
	"l1.icache_ways":            {1, maxWays},
	"icnt.req_flit_bytes":       {1, maxFlitBytes},
	"icnt.reply_flit_bytes":     {1, maxFlitBytes},
	"icnt.input_buf_flits":      {0, maxQueueEntries},
	"icnt.output_buf_packets":   {0, maxQueueEntries},
	"icnt.latency_cycles":       {0, maxLatency},
	"icnt.clock_mhz":            {0, maxClockMHz},
	"l2.size_bytes":             {1, maxCacheBytes},
	"l2.line_bytes":             {1, maxLineBytes},
	"l2.ways":                   {1, maxWays},
	"l2.num_banks":              {1, maxBanks},
	"l2.mshr_entries":           {1, maxQueueEntries},
	"l2.mshr_max_merge":         {0, maxQueueEntries},
	"l2.miss_queue_entries":     {0, maxQueueEntries},
	"l2.access_queue_entries":   {0, maxQueueEntries},
	"l2.response_queue_entries": {0, maxQueueEntries},
	"l2.data_port_bytes":        {1, maxQueueEntries},
	"l2.tag_latency":            {0, maxLatency},
	"l2.clock_mhz":              {0, maxClockMHz},
	"dram.num_partitions":       {1, maxPartitions},
	"dram.bus_width_bits":       {1, maxBusBits},
	"dram.data_rate":            {1, maxDataRate},
	"dram.banks_per_chip":       {1, maxBanks},
	"dram.row_bytes":            {1, maxRowBytes},
	"dram.sched_queue_entries":  {0, maxQueueEntries},
	"dram.return_queue_entries": {0, maxQueueEntries},
	"dram.ctrl_latency":         {0, maxLatency},
	"dram.clock_mhz":            {0, maxClockMHz},
	"dram.timing.ccd":           {0, maxLatency},
	"dram.timing.rrd":           {0, maxLatency},
	"dram.timing.rcd":           {0, maxLatency},
	"dram.timing.ras":           {0, maxLatency},
	"dram.timing.rp":            {0, maxLatency},
	"dram.timing.rc":            {0, maxLatency},
	"dram.timing.cl":            {0, maxLatency},
	"dram.timing.wl":            {0, maxLatency},
	"dram.timing.cdlr":          {0, maxLatency},
	"dram.timing.wr":            {0, maxLatency},
	"dram.infinite_latency":     {0, maxIdealLatency},
	"fixed_l1_miss_latency":     {0, maxIdealLatency},
	"ideal_l2_hit_latency":      {0, maxIdealLatency},
	"ideal_mem_latency":         {0, maxIdealLatency},
	"max_cycles":                {0, 0},
}

// Knobs enumerates every patchable knob in Config's type tree, in field
// declaration order, with canonical dotted paths, types, Validate bounds
// and baseline values. The walk is the same reflect traversal Set's
// insertKnob performs, so the two can never disagree about what exists.
func Knobs() []Knob {
	base := Baseline()
	var out []Knob
	walkKnobs(reflect.TypeOf(Config{}), reflect.ValueOf(base), "", &out)
	return out
}

func walkKnobs(t reflect.Type, v reflect.Value, prefix string, out *[]Knob) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + knobPathSegment(f.Name)
		fv := v.Field(i)
		if f.Type == reflect.TypeOf(Mode(0)) {
			*out = append(*out, Knob{Path: path, Type: "mode", Baseline: fv.Interface().(Mode).String()})
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			walkKnobs(f.Type, fv, path+".", out)
			continue
		}
		k := Knob{Path: path}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			k.Type = "int"
			k.Baseline = strconv.FormatInt(fv.Int(), 10)
		case reflect.Float64:
			k.Type = "float"
			k.Baseline = strconv.FormatFloat(fv.Float(), 'g', -1, 64)
		case reflect.Bool:
			k.Type = "bool"
			k.Baseline = strconv.FormatBool(fv.Bool())
		case reflect.String:
			k.Type = "string"
			k.Baseline = fv.String()
		default:
			// Set rejects such a field too; skip rather than lie.
			continue
		}
		if b, ok := knobBounds[path]; ok {
			k.Min, k.Max = b.min, b.max
		}
		*out = append(*out, k)
	}
}

// KnobByPath returns the knob named by path, matching with Set's fuzzy
// rules (case, underscores and dashes ignored per segment).
func KnobByPath(path string) (Knob, error) {
	want := normalizeKnob(path)
	for _, k := range Knobs() {
		if normalizeKnob(k.Path) == want {
			return k, nil
		}
	}
	return Knob{}, fmt.Errorf("config: unknown knob %q", path)
}

// KnobValue reads cfg's current value for the knob named by path (any
// Set spelling), in Set's textual form — the inverse of Set for a single
// knob.
func KnobValue(cfg *Config, path string) (string, error) {
	segs := strings.Split(path, ".")
	t := reflect.TypeOf(*cfg)
	v := reflect.ValueOf(*cfg)
	for i, seg := range segs {
		field, ok := fieldByFuzzyName(t, seg)
		if !ok {
			return "", fmt.Errorf("config: unknown knob %q in path %q (known here: %s)", seg, path, fieldNames(t))
		}
		v = v.FieldByIndex(field.Index)
		t = field.Type
		last := i == len(segs)-1
		if t == reflect.TypeOf(Mode(0)) {
			if !last {
				return "", fmt.Errorf("config: knob %q in path %q is not a group", field.Name, path)
			}
			return v.Interface().(Mode).String(), nil
		}
		if t.Kind() == reflect.Struct {
			if last {
				return "", fmt.Errorf("config: path %q names a group, not a knob (members: %s)", path, fieldNames(t))
			}
			continue
		}
		if !last {
			return "", fmt.Errorf("config: knob %q in path %q is not a group", field.Name, path)
		}
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), nil
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64), nil
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), nil
	case reflect.String:
		return v.String(), nil
	default:
		return "", fmt.Errorf("config: knob %q has unsupported kind %v", path, t.Kind())
	}
}

// knobPathSegment converts one Go field name to its canonical lower
// snake-case path segment: word boundaries fall before an upper-case
// rune that follows a lower-case rune or digit, and after an acronym of
// at least two runes ("MSHREntries" → "mshr_entries", "ICacheSizeBytes"
// → "icache_size_bytes", "ClockMHz" → "clock_mhz"). Any respelling
// round-trips through Set's normalizeKnob, which ignores the
// underscores again.
func knobPathSegment(name string) string {
	runes := []rune(name)
	var words []string
	start := 0
	for i := 1; i < len(runes); i++ {
		if !unicode.IsUpper(runes[i]) {
			continue
		}
		prev := runes[i-1]
		acronymEnd := unicode.IsUpper(prev) && i+1 < len(runes) && unicode.IsLower(runes[i+1]) && i-start >= 2
		if unicode.IsLower(prev) || unicode.IsDigit(prev) || acronymEnd {
			words = append(words, string(runes[start:i]))
			start = i
		}
	}
	words = append(words, string(runes[start:]))
	seg := ""
	for i, w := range words {
		if i > 0 {
			seg += "_"
		}
		for _, r := range w {
			seg += string(unicode.ToLower(r))
		}
	}
	return seg
}
