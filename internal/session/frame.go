package session

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"repro/internal/power"
)

// appendFrame appends f's JSON document to dst: byte for byte what
// json.Marshal(f) produces (fields in declared order, floats as ES6
// numbers, nil slices as null), without reflection, and without
// allocation once dst has the capacity. A NaN or infinite float fails
// with the error json.Marshal returns for the first one. FuzzFrameJSON
// holds the two encodings equal; a sim.TickState field this function
// does not write fails it.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	var err error
	float := func(b []byte, v float64) []byte { return appendFloat(b, v, &err) }
	s := &f.TickState
	dst = strconv.AppendInt(append(dst, `{"tick":`...), int64(f.Tick), 10)
	dst = float(append(dst, `,"time_s":`...), s.TimeS)
	dst = float(append(dst, `,"power_w":`...), s.PowerW)
	dst = float(append(dst, `,"max_block_c":`...), s.MaxBlockC)
	dst = appendArray(append(dst, `,"core_temps_c":`...), s.CoreTempsC, float)
	dst = appendArray(append(dst, `,"levels":`...), s.Levels, appendInt[power.VfLevel])
	dst = appendArray(append(dst, `,"gated":`...), s.Gated, strconv.AppendBool)
	dst = appendArray(append(dst, `,"sleeping":`...), s.Sleeping, strconv.AppendBool)
	dst = appendArray(append(dst, `,"queue_lens":`...), s.QueueLens, appendInt[int])
	dst = appendArray(append(dst, `,"utils":`...), s.Utils, float)
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendArray appends v as a JSON array of elem-encoded values, or null
// when v is nil, as encoding/json encodes a slice.
func appendArray[T any](dst []byte, v []T, elem func([]byte, T) []byte) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, x)
	}
	return append(dst, ']')
}

// appendInt appends an integer of any int-based type in decimal.
func appendInt[T ~int](dst []byte, v T) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendFloat appends v as encoding/json's float64 encoder does: 'f'
// format, or 'e' when 0 < |v| < 1e-6 or |v| >= 1e21, with a negative
// exponent's leading zero dropped (e-07 becomes e-7). A NaN or an
// infinity appends nothing and stores json.Marshal's error in *err,
// unless an earlier value already did.
func appendFloat(dst []byte, v float64, err *error) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return dst
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
