package main

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	var every []string
	for _, d := range descriptions {
		every = append(every, d.id)
	}
	sort.Strings(every)
	for _, tc := range []struct {
		list    string
		want    []string // sorted; nil with an error
		unknown []string // IDs the error must name
	}{
		{list: "all", want: every},
		{list: "ALL", want: every},
		{list: "e12", want: []string{"e12"}},
		{list: " E1 ,e13,T1", want: []string{"e1", "e13", "t1"}},
		{list: "e12,e12", want: []string{"e12"}},
		{list: "e12,e99x", unknown: []string{`"e99x"`}},
		{list: "e1x,all,e2y", unknown: []string{`"e1x"`, `"e2y"`}},
		{list: "e1,", unknown: []string{`""`}},
	} {
		got, err := parseExperiments(tc.list)
		if tc.unknown != nil {
			if err == nil {
				t.Errorf("%q: accepted as %v", tc.list, got)
				continue
			}
			for _, want := range append(tc.unknown, every...) {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%q: error %q does not name %s", tc.list, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if !slices.Equal(ids, tc.want) {
			t.Errorf("%q selects %v, want %v", tc.list, ids, tc.want)
		}
	}
}
