package flowgen

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCDFParse throws arbitrary trace text at the parser. Accepted
// inputs must satisfy every invariant Sample and Mean rely on: positive
// strictly increasing sizes, a nondecreasing CDF carrying full mass,
// finite analytic mean inside the support, and samples that never leave
// the support.
func FuzzCDFParse(f *testing.F) {
	f.Add("1460 1.0\n")
	f.Add("# comment\n1460 0.5\n29200 1.0\n")
	f.Add("100 1 0.10\n1460 2 0.40\n10000 3 1.00\n")
	f.Add("2000 0.5\n1000 1.0\n") // non-monotone sizes
	f.Add("1000 0.8\n2000 0.5\n") // decreasing CDF
	f.Add("1000 0.0\n2000 0.0\n") // zero probability mass
	f.Add("1000 0.5\n2000 0.9\n") // mass short of 1
	f.Add("NaN NaN\n")            // non-finite fields
	f.Add("1 2 3 4\n")            // too many columns
	f.Add("1000 0.5\n1000 1.0\n") // duplicate size
	f.Add("1e300 1.0\n")          // absurd size
	f.Add("1460\t0.25\n2920  1.0  #")

	f.Fuzz(func(t *testing.T, body string) {
		c, err := ParseCDFString(body)
		if err != nil {
			return
		}
		if c.Points() < 1 {
			t.Fatal("accepted an empty CDF")
		}
		if c.MinSize() < 1 || c.MaxSize() > int64(1e15) || c.MinSize() > c.MaxSize() {
			t.Fatalf("support [%d, %d] out of range", c.MinSize(), c.MaxSize())
		}
		// MaxSize truncates, so allow the mean one byte of slack.
		m := c.Mean()
		if math.IsNaN(m) || m <= 0 || m > float64(c.MaxSize()+1) {
			t.Fatalf("mean %v outside (0, %d]", m, c.MaxSize()+1)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 64; i++ {
			v := c.Sample(rng)
			if v < c.MinSize() || v > c.MaxSize() {
				t.Fatalf("sample %d outside [%d, %d]", v, c.MinSize(), c.MaxSize())
			}
		}
	})
}
