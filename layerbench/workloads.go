package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"jash/internal/workload"
)

// Input sizes. They are chosen so one JIT session takes well under a
// second on a 2-core host, giving several sessions per measured run.
const (
	wordfreqBytes   = 4 << 20 // the Figure 1 corpus
	smallFileCount  = 2000    // one top-level command per file
	smallFileWords  = 8       // one word per line
	reportLogs      = 4       // independent statements in the list
	reportLogLines  = 150000  // ~12 MB of access log per statement
	loopIterations  = 100000  // while-loop trip count
	smallVocabulary = 24      // words per small file come from this many
)

// command is one top-level command of a session and what it must leave
// behind: its exact stdout and the exact contents of every file it writes.
type command struct {
	src    string
	stdout string
	files  map[string][]byte
}

// workloadSpec is one workload: the generated input files (the only thing
// the program under test receives) and the closed-loop command sequence.
type workloadSpec struct {
	inputs map[string][]byte
	cmds   []command
}

var workloadNames = []string{"wordfreq", "smallfiles", "reportgen", "loop"}

// buildWorkload generates a workload's inputs from the seed and computes
// its reference outputs with the independent implementations below.
func buildWorkload(name string, seed uint64) (*workloadSpec, error) {
	switch name {
	case "wordfreq":
		return wordfreqWorkload(seed), nil
	case "smallfiles":
		return smallfilesWorkload(seed), nil
	case "reportgen":
		return reportgenWorkload(seed, reportLogLines), nil
	case "loop":
		return loopWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func wordfreqWorkload(seed uint64) *workloadSpec {
	text := workload.Words(seed, wordfreqBytes)
	return &workloadSpec{
		inputs: map[string][]byte{"/data/words.txt": text},
		cmds: []command{{
			src:    "cat /data/words.txt | tr A-Z a-z | tr -cs A-Za-z '\\n' | sort | uniq -c | sort -rn | head -n10",
			stdout: refWordFreq(text, 10),
		}},
	}
}

func smallfilesWorkload(seed uint64) *workloadSpec {
	rng := workload.NewRNG(seed)
	vocab := workload.Vocabulary(smallVocabulary)
	w := &workloadSpec{inputs: map[string][]byte{}}
	for i := 0; i < smallFileCount; i++ {
		var b bytes.Buffer
		for j := 0; j < smallFileWords; j++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte('\n')
		}
		path := fmt.Sprintf("/small/f%04d.txt", i)
		w.inputs[path] = b.Bytes()
		w.cmds = append(w.cmds, command{
			src:   fmt.Sprintf("f=%s; sort \"$f\" | uniq -c >\"$f.cnt\"", path),
			files: map[string][]byte{path + ".cnt": []byte(refSortUniqC(b.Bytes()))},
		})
	}
	return w
}

func reportgenWorkload(seed uint64, lines int) *workloadSpec {
	w := &workloadSpec{inputs: map[string][]byte{}}
	var assigns, stmts, tops []string
	outputs := map[string][]byte{}
	total := 0
	for i := 1; i <= reportLogs; i++ {
		log := workload.AccessLog(seed*1000+uint64(i), lines)
		path := fmt.Sprintf("/logs/access%d.log", i)
		w.inputs[path] = log
		assigns = append(assigns, fmt.Sprintf("W%d=%s", i, path))
		stmts = append(stmts, fmt.Sprintf(
			"grep \" 500 \" \"$W%d\" | cut -d \" \" -f 1 | sort | uniq -c | sort -rn >\"$OUT/top%d\"", i, i))
		tops = append(tops, fmt.Sprintf("\"$OUT/top%d\"", i))
		ref := refStatusReport(log, " 500 ")
		outputs[fmt.Sprintf("/report/top%d", i)] = []byte(ref)
		total += strings.Count(ref, "\n")
	}
	// The output directory exists before the session, like a report
	// tree a real job writes into.
	w.inputs["/report/.keep"] = nil
	assigns = append(assigns, "OUT=/report")
	stmts = append(stmts, "cat "+strings.Join(tops, " ")+" | wc -l")
	w.cmds = []command{
		{src: strings.Join(assigns, "; ")},
		{src: strings.Join(stmts, "; "), stdout: fmt.Sprintf("%d\n", total), files: outputs},
	}
	return w
}

func loopWorkload() *workloadSpec {
	n := int64(loopIterations)
	return &workloadSpec{
		inputs: map[string][]byte{},
		cmds: []command{{
			src:    fmt.Sprintf("i=0; s=0; while [ $i -lt %d ]; do i=$((i+1)); s=$((s+i)); done; echo $s", n),
			stdout: fmt.Sprintf("%d\n", n*(n+1)/2),
		}},
	}
}

// sortedPaths lists the input paths in a fixed order.
func (w *workloadSpec) sortedPaths() []string {
	paths := make([]string, 0, len(w.inputs))
	for p := range w.inputs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// The reference implementations below compute what GNU coreutils print
// under LC_ALL=C, written directly in Go so that no output is ever
// checked against one of the shell's own engines.

// countLine is one `uniq -c` output line.
type countLine struct {
	n    int
	text string
}

// formatCountsRN renders counts the way `uniq -c | sort -rn` does under
// LC_ALL=C: counts descending, ties broken by the whole line, reversed.
// The count is right-aligned in seven columns, as GNU uniq prints it.
func formatCountsRN(counts map[string]int, limit int) string {
	lines := make([]countLine, 0, len(counts))
	for text, n := range counts {
		lines = append(lines, countLine{n, text})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].n != lines[j].n {
			return lines[i].n > lines[j].n
		}
		return lines[i].text > lines[j].text
	})
	if limit > 0 && len(lines) > limit {
		lines = lines[:limit]
	}
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%7d %s\n", l.n, l.text)
	}
	return b.String()
}

// refWordFreq is `tr A-Z a-z | tr -cs A-Za-z '\n' | sort | uniq -c |
// sort -rn | head -n<limit>`.
func refWordFreq(text []byte, limit int) string {
	counts := map[string]int{}
	isLetter := func(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
	// A leading non-letter run becomes one empty line.
	if len(text) > 0 && !isLetter(text[0]) {
		counts[""]++
	}
	for i := 0; i < len(text); {
		if !isLetter(text[i]) {
			i++
			continue
		}
		j := i
		for j < len(text) && isLetter(text[j]) {
			j++
		}
		counts[strings.ToLower(string(text[i:j]))]++
		i = j
	}
	return formatCountsRN(counts, limit)
}

// refSortUniqC is `sort | uniq -c` over newline-terminated lines.
func refSortUniqC(data []byte) string {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	sort.Strings(lines)
	var b strings.Builder
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		fmt.Fprintf(&b, "%7d %s\n", j-i, lines[i])
		i = j
	}
	return b.String()
}

// refStatusReport is `grep <pattern> | cut -d " " -f 1 | sort | uniq -c |
// sort -rn`: per-client counts of the log lines containing pattern.
func refStatusReport(log []byte, pattern string) string {
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(log), "\n"), "\n") {
		if !strings.Contains(line, pattern) {
			continue
		}
		client := line
		if k := strings.IndexByte(line, ' '); k >= 0 {
			client = line[:k]
		}
		counts[client]++
	}
	return formatCountsRN(counts, 0)
}
