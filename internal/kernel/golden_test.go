package kernel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"orderlight/internal/config"
	"orderlight/internal/gpu"
)

// TestFinalImageGolden pins, for every Table 2 kernel under fence and
// OrderLight, the memory image a run leaves, the golden image Verify's
// reference replay computes (the two must match), and the temporary
// storage the run leaves. The run and the replay execute on the same
// PIM unit code, so Verify's Store.Equal alone cannot catch an
// execution error the two share; these digests, recorded when every TS
// slot held its plain lane values, can.
func TestFinalImageGolden(t *testing.T) {
	want := map[string][2]string{ // kernel: image digest, TS digest
		"scale":   {"9ed44609a193d748", "8f6955bf94ec2325"},
		"copy":    {"ccc0a34c14b67eb9", "cf39a33d67f538c5"},
		"daxpy":   {"d9541f4c8396da40", "7bf719dd06a09360"},
		"triad":   {"d749337e4b58f01b", "6f0d6dc1fdc3e329"},
		"add":     {"b135128d8970d502", "f4fde765f81007d9"},
		"bn_fwd":  {"c53dea4073d5cf09", "8411870d7a353949"},
		"bn_bwd":  {"1a45b78b11b67f98", "7cd67bb1d76adf75"},
		"fc":      {"f6a543475f3fe9e0", "619769035c96c845"},
		"kmeans":  {"f6a543475f3fe9e0", "422cbf956492fb2d"},
		"svm":     {"3b583b7d301daea9", "7bf719dd06a09360"},
		"hist":    {"1d2aa0379f7cecee", "cf39a33d67f538c5"},
		"gen_fil": {"e04303d19821122d", "1e01372691bbe725"},
	}
	for _, spec := range All() {
		for _, p := range []config.Primitive{config.PrimitiveFence, config.PrimitiveOrderLight} {
			t.Run(spec.Name+"/"+p.String(), func(t *testing.T) {
				cfg := smallCfg(p)
				k, err := Build(cfg, spec, 64<<10)
				if err != nil {
					t.Fatal(err)
				}
				golden := k.Store.Clone()
				m, err := gpu.NewMachine(cfg, k.Store, k.Programs)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Verified || !st.Correct {
					t.Fatalf("run verified incorrect (%d diff slots)", st.DiffSlots)
				}
				if err := gpu.Replay(cfg, golden, k.Programs); err != nil {
					t.Fatal(err)
				}
				w := want[spec.Name]
				if got := imageHash(k.Store); got != w[0] {
					t.Errorf("run image digest %s, want %s", got, w[0])
				}
				if got := imageHash(golden); got != w[0] {
					t.Errorf("golden image digest %s, want %s", got, w[0])
				}
				if got := tsHash(m, cfg.Memory.Channels); got != w[1] {
					t.Errorf("TS digest %s, want %s", got, w[1])
				}
			})
		}
	}
}

// tsHash digests every channel's temporary storage after a run: fc,
// kmeans and gen_fil never store their exec chains' results, so only
// the TS slots show them.
func tsHash(m *gpu.Machine, channels int) string {
	h := fnv.New64a()
	var buf []byte
	for ch := 0; ch < channels; ch++ {
		u := m.Controller(ch).Unit()
		for i := 0; i < u.Slots(); i++ {
			buf = buf[:0]
			for _, v := range u.Slot(i) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			h.Write(buf)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
