package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestTSFraction(t *testing.T) {
	c := Default() // 2048 B row buffer
	cases := []struct {
		frac string
		want int
	}{
		{"1/16", 128},
		{"1/8", 256},
		{"1/4", 512},
		{"1/2", 1024},
		{"1/1", 2048},
	}
	for _, tc := range cases {
		got, err := c.TSFraction(tc.frac)
		if err != nil {
			t.Errorf("TSFraction(%q) error: %v", tc.frac, err)
			continue
		}
		if got != tc.want {
			t.Errorf("TSFraction(%q) = %d, want %d", tc.frac, got, tc.want)
		}
	}
}

func TestTSFractionErrors(t *testing.T) {
	c := Default()
	for _, bad := range []string{"", "8", "0/8", "1/0", "-1/8", "x/8", "1/y", "1/3"} {
		if _, err := c.TSFraction(bad); err == nil {
			t.Errorf("TSFraction(%q) succeeded, want error", bad)
		}
	}
}

func TestCommandsPerTileMatchesFigure11(t *testing.T) {
	// Figure 11: a 256 B temporary storage admits 8 column accesses of
	// 32 B each before the row must switch.
	c := Default().WithTSFraction("1/8")
	if got := c.CommandsPerTile(); got != 8 {
		t.Fatalf("CommandsPerTile() = %d, want 8", got)
	}
}

func TestBytesPerCommand(t *testing.T) {
	c := Default()
	if got := c.BytesPerCommand(); got != 32*16 {
		t.Fatalf("BytesPerCommand() = %d, want 512", got)
	}
}

func TestHostPeakBandwidth(t *testing.T) {
	// 16 channels x 32 B x 850 MHz = 435.2 GB/s raw pin bandwidth. The
	// paper quotes 405 GB/s effective; GPU.HostPeakGBs carries that.
	c := Default()
	if got := c.HostPeakBandwidth(); got != 16*32*850e6 {
		t.Fatalf("HostPeakBandwidth() = %v", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*Config)
	}{
		{"zero PIM SMs", func(c *Config) { c.GPU.PIMSMs = 0 }},
		{"too few warps", func(c *Config) { c.GPU.PIMSMs = 1; c.GPU.WarpsPerSM = 1 }},
		{"too many channels", func(c *Config) { c.Memory.Channels = 17 }},
		{"too many groups", func(c *Config) { c.Memory.GroupsPerChannel = 17 }},
		{"banks not divisible by groups", func(c *Config) { c.Memory.GroupsPerChannel = 5 }},
		{"row not multiple of bus", func(c *Config) { c.Memory.RowBufferBytes = 2049 }},
		{"tiny TS", func(c *Config) { c.PIM.TSBytes = 8 }},
		{"unaligned TS", func(c *Config) { c.PIM.TSBytes = 100 }},
		{"zero BMF", func(c *Config) { c.PIM.BMF = 0 }},
		{"zero subpartitions", func(c *Config) { c.GPU.L2SubPartitions = 0 }},
		{"banks not divisible by subpartitions", func(c *Config) { c.GPU.L2SubPartitions = 3 }},
		{"zero timing", func(c *Config) { c.Memory.Timing.RAS = 0 }},
		{"bad chunk", func(c *Config) { c.Memory.ChunkBytes = 40 }},
	}
	for _, m := range mutate {
		c := Default()
		m.f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", m.name)
		}
	}
}

// TestValidateRequestFieldBounds walks each limit a sized isa.Request
// field imposes: the configuration at the bound validates, one past it
// is rejected with a message naming the field.
func TestValidateRequestFieldBounds(t *testing.T) {
	cases := []struct {
		name string
		set  func(c *Config, v int)
		at   int
		want string
	}{
		{"channels", func(c *Config, v int) { c.Memory.Channels = v }, 16, "channels"},
		{"groups", func(c *Config, v int) { c.Memory.GroupsPerChannel = v }, 16, "memory-groups"},
		{"banks", func(c *Config, v int) {
			c.Memory.BanksPerChannel, c.Memory.GroupsPerChannel, c.GPU.L2SubPartitions = v, 1, 1
		}, MaxBanks, "banks"},
		{"SMs x warps", func(c *Config, v int) { c.GPU.PIMSMs, c.GPU.WarpsPerSM = 1, v }, MaxWarps, "warp ID"},
		{"TS slots", func(c *Config, v int) {
			c.Memory.GroupsPerChannel, c.PIM.TSBytes = 1, v*c.Memory.BusWidthBytes
		}, MaxTSSlots, "TS slot"},
		{"L2 sub-partitions", func(c *Config, v int) {
			c.Memory.BanksPerChannel, c.Memory.GroupsPerChannel, c.GPU.L2SubPartitions = MaxBanks, 1, v
		}, MaxFanOut, "L2 sub-partitions"},
		{"interconnect routes", func(c *Config, v int) { c.GPU.IcntRoutes = v }, MaxFanOut, "interconnect routes"},
	}
	for _, tc := range cases {
		c := Default()
		if tc.name == "groups" {
			c.Memory.BanksPerChannel = 16
		}
		tc.set(&c, tc.at)
		if err := c.Validate(); err != nil {
			t.Errorf("%s = %d (the bound): Validate() = %v, want nil", tc.name, tc.at, err)
		}
		tc.set(&c, tc.at+1)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s = %d (bound+1): Validate() = %v, want an error naming %q", tc.name, tc.at+1, err, tc.want)
		}
	}
}

func TestParsePrimitive(t *testing.T) {
	cases := map[string]Primitive{
		"none": PrimitiveNone, "NoFence": PrimitiveNone,
		"fence": PrimitiveFence, "FENCE": PrimitiveFence,
		"orderlight": PrimitiveOrderLight, "OL": PrimitiveOrderLight,
	}
	for s, want := range cases {
		got, err := ParsePrimitive(s)
		if err != nil || got != want {
			t.Errorf("ParsePrimitive(%q) = %v,%v want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrimitive("bogus"); err == nil {
		t.Error("ParsePrimitive(bogus) succeeded, want error")
	}
}

func TestPrimitiveString(t *testing.T) {
	if PrimitiveNone.String() != "none" ||
		PrimitiveFence.String() != "fence" ||
		PrimitiveOrderLight.String() != "orderlight" {
		t.Error("Primitive.String() mismatch")
	}
	if !strings.HasPrefix(Primitive(99).String(), "Primitive(") {
		t.Error("unknown primitive should render as Primitive(n)")
	}
}

func TestTable1ContainsTimingString(t *testing.T) {
	rows := Table1String(Default())
	want := "CCD=1:RRD=3:RCDW=9:RAS=28:RP=12:CL=12:WL=2:CDLR=3:WR=10:CCDL=2:WTP=9"
	if !strings.Contains(rows, want) {
		t.Fatalf("Table 1 output missing paper timing string %q:\n%s", want, rows)
	}
}

// Table1String is a test helper rendering Table1 rows as text.
func Table1String(c Config) string {
	var b strings.Builder
	for _, r := range c.Table1() {
		b.WriteString(r[0])
		b.WriteString(": ")
		b.WriteString(r[1])
		b.WriteString("\n")
	}
	return b.String()
}

func TestBanksPerGroup(t *testing.T) {
	c := Default()
	if got := c.BanksPerGroup(); got != 4 {
		t.Fatalf("BanksPerGroup() = %d, want 4", got)
	}
}
