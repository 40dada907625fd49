package thermal

import (
	"fmt"
	"math/rand"
)

// SensorConfig describes the per-core temperature sensors assumed by the
// paper's dynamic management infrastructure (one sensor per core, read
// every scheduling interval).
type SensorConfig struct {
	// NoiseStdDevC is the standard deviation of additive Gaussian read
	// noise in °C (0 disables noise).
	NoiseStdDevC float64
	// QuantizationC rounds readings to the nearest multiple (0 disables
	// quantization). Real on-die thermal diodes typically quantize to
	// 0.25-1 °C.
	QuantizationC float64
	// Seed makes the noise stream reproducible.
	Seed int64
}

// Sensors models the per-core temperature sensor bank. Only a noisy
// bank holds a generator: ideal and quantizing banks never draw, so
// they allocate and seed none.
type Sensors struct {
	cfg SensorConfig
	rng *rand.Rand // nil unless NoiseStdDevC > 0
	// draws counts NormFloat64 calls consumed from the noise stream.
	// math/rand exposes no way to capture generator state directly, so
	// CopyFrom positions a bank by reseeding and replaying to a draw
	// count: exact for any count, and free without noise, which never
	// draws.
	draws uint64
}

// NewSensors builds a sensor bank. The zero config yields ideal sensors.
func NewSensors(cfg SensorConfig) (*Sensors, error) {
	if cfg.NoiseStdDevC < 0 {
		return nil, fmt.Errorf("thermal: sensor noise stddev must be >= 0, got %g", cfg.NoiseStdDevC)
	}
	if cfg.QuantizationC < 0 {
		return nil, fmt.Errorf("thermal: sensor quantization must be >= 0, got %g", cfg.QuantizationC)
	}
	s := &Sensors{cfg: cfg}
	if cfg.NoiseStdDevC > 0 {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return s, nil
}

// ReadInto maps true core temperatures to sensor readings, applying
// noise and quantization, and writes them into a caller-owned dst of
// the same length (dst may alias the input: each entry is read before
// it is written). It panics on a length mismatch, like the other *Into
// hot-path methods.
func (s *Sensors) ReadInto(dst, trueTempsC []float64) {
	if len(dst) != len(trueTempsC) {
		panic(fmt.Sprintf("thermal: ReadInto got %d destination entries for %d temps", len(dst), len(trueTempsC)))
	}
	for i, t := range trueTempsC {
		v := t
		if s.cfg.NoiseStdDevC > 0 {
			v += s.rng.NormFloat64() * s.cfg.NoiseStdDevC
			s.draws++
		}
		if q := s.cfg.QuantizationC; q > 0 {
			v = quantize(v, q)
		}
		dst[i] = v
	}
}

// CopyFrom moves the receiver's noise stream to src's position: when
// their draw counts differ it reseeds the receiver's generator and
// replays the stream to src's count, a cost linear in that count. The
// receiver keeps its own configuration, so both banks should share
// one. src is only read.
func (s *Sensors) CopyFrom(src *Sensors) {
	if s.draws == src.draws {
		return
	}
	s.rng = rand.New(rand.NewSource(s.cfg.Seed))
	for i := uint64(0); i < src.draws; i++ {
		s.rng.NormFloat64()
	}
	s.draws = src.draws
}

func quantize(v, q float64) float64 {
	n := v / q
	if n >= 0 {
		return q * float64(int64(n+0.5))
	}
	return q * float64(int64(n-0.5))
}
