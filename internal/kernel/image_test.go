package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/dram"
	"orderlight/internal/isa"
)

// imageHash digests every written slot of a store in address order:
// each address, then its lanes, little-endian.
func imageHash(st *dram.Store) string {
	s := st.State()
	addrs := make([]isa.Addr, 0, len(s.Data))
	for a := range s.Data {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	h := sha256.New()
	var buf []byte
	for _, a := range addrs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(a))
		for _, v := range s.Data[a] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenImages are the initial memory images of every Table 2 kernel on
// the Table 1 machine (16 channels, BMF 16, TS 1/8) at 16 KiB per
// channel. The ordering primitive does not touch the image, so fence
// and OrderLight builds share one hash. The seeding formula is the only
// writer of these bytes, and a run's Verify compares two images built
// by the same code, so this is the check that catches a changed seed
// value.
var goldenImages = map[string]string{
	"scale":   "6fdc204472807fb5",
	"copy":    "6fdc204472807fb5",
	"daxpy":   "3a4cb3e05458d2fa",
	"triad":   "3a4cb3e05458d2fa",
	"add":     "3a4cb3e05458d2fa",
	"bn_fwd":  "3a4cb3e05458d2fa",
	"bn_bwd":  "233efc1fdaf627f6",
	"fc":      "6fdc204472807fb5",
	"kmeans":  "6fdc204472807fb5",
	"svm":     "3a4cb3e05458d2fa",
	"hist":    "64ec1fbb75388cff",
	"gen_fil": "2c2243c31825ae91",
}

func TestBuildImageGolden(t *testing.T) {
	for _, prim := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight} {
		cfg := config.Default().WithTSFraction("1/8")
		cfg.Run.Primitive = prim
		for _, spec := range All() {
			k, err := Build(cfg, spec, 16<<10)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := imageHash(k.Store), goldenImages[spec.Name]; got != want {
				t.Errorf("%v/%s: initial image hash %s, want %s (%d slots)", prim, spec.Name, got, want, k.Store.Touched())
			}
		}
	}
}

// BenchmarkKernelBuild builds each of Figure 12's seven application
// kernels once per op at the experiments' default footprint (256 KiB
// per channel) on the Table 1 machine at TS 1/8 under OrderLight.
func BenchmarkKernelBuild(b *testing.B) {
	cfg := config.Default().WithTSFraction("1/8")
	cfg.Run.Primitive = config.PrimitiveOrderLight
	apps := Apps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range apps {
			if _, err := Build(cfg, spec, 256<<10); err != nil {
				b.Fatal(err)
			}
		}
	}
}
