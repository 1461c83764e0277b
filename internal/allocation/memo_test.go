package allocation

import "testing"

// TestSearchMemoOracle runs TestCRAMGolden's rows with the search-memo
// oracle on (CRAM.checkSearchMemo): every search a GIF's memo answers is also
// run, and a memo that differs from it in candidate or in any count fails
// the run. The brokers are tight, so rejected pairings take part in the
// searches the memo answers, and every row must read its recorded plan and
// stats, SearchesReused among them.
func TestSearchMemoOracle(t *testing.T) {
	in, cases := cramGolden(t)
	for _, tc := range cases {
		tc.cram.checkSearchMemo = true
		t.Run(tc.name, func(t *testing.T) { checkCRAMGolden(t, in, tc) })
	}
}
