package harness

import (
	"bytes"
	"fmt"
	"testing"
)

// TestQuickScaleContract pins the behaviour contract: the whole registry at
// QuickOptions, as `perspective-sim -exp all` prints it minus the supervisor
// report (the only wall-time column), must match the committed golden at
// any worker count. A change that moves any simulated byte fails here; one
// that does so on purpose regenerates the golden with -update and says why.
// The golden's FNV-64a is also simbench's committed eval-quick sim_digest
// (seed 1), so such a change needs that digest re-pinned as well.
func TestQuickScaleContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale registry run")
	}
	jobs := []int{1, 8}
	if raceEnabled {
		jobs = []int{8}
	}
	for _, j := range jobs {
		t.Run(fmt.Sprintf("jobs=%d", j), func(t *testing.T) {
			opt := QuickOptions()
			opt.Jobs = j
			var buf bytes.Buffer
			if _, err := SuperviseExperiments(opt, SupervisorOptions{Retries: 1}, Experiments(), &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "quick_all", buf.Bytes())
		})
	}
}
