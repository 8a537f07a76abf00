package server

import (
	"math"
	"strconv"

	"github.com/tukwila/adp/internal/types"
)

// appendTupleValuesParent is appendTupleValues as it was before floats had
// a fast path — every float through strconv — kept verbatim as the
// reference TestAppendRowFrame holds the encoder to, byte for byte.
func appendTupleValuesParent(dst []byte, t types.Tuple) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case types.KindInt:
			dst = strconv.AppendInt(dst, v.I, 10)
		case types.KindFloat:
			if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
				dst = append(dst, "null"...)
			} else {
				dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
			}
		case types.KindString:
			dst = appendJSONString(dst, v.S)
		default:
			dst = append(dst, "null"...)
		}
	}
	return dst
}
