package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSamples is one scrape of a Prometheus text page: series (name plus
// its label set, verbatim) → value.
type promSamples map[string]float64

// parseProm reads the Prometheus 0.0.4 text format. Comment lines are
// skipped; a malformed sample line is an error, so a signal the daemons
// garble is caught here instead of read as zero.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); cut < brace || cut <= 0 {
			return nil, fmt.Errorf("prom: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name, labelled or not.
func (p promSamples) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta is the growth of family name from before to p.
func (p promSamples) delta(before promSamples, name string) float64 {
	return p.sum(name) - before.sum(name)
}

// scrape fetches and parses base's /metrics page.
func scrape(client *http.Client, base string) (promSamples, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
