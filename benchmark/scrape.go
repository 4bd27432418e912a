package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of lbproxy's /metrics page: series name (labels
// included, as printed) to value. A series the page does not carry is
// simply absent from the map.
type scrape map[string]float64

// adminClient bounds every call to the admin page: a proxy that stops
// answering fails the run instead of hanging the rig.
var adminClient = &http.Client{Timeout: 3 * time.Second}

func scrapeMetrics(adminAddr string) (scrape, error) {
	resp, err := adminClient.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// perBackend returns a labelled family's values indexed by its backend
// label, e.g. lbproxy_backend_weight{backend="1",addr="…"}.
func (s scrape) perBackend(family string, n int) ([]float64, bool) {
	out := make([]float64, n)
	found := 0
	for k, v := range s {
		if !strings.HasPrefix(k, family+`{backend="`) {
			continue
		}
		rest := k[len(family)+len(`{backend="`):]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			continue
		}
		if i, err := strconv.Atoi(rest[:end]); err == nil && i >= 0 && i < n {
			out[i] = v
			found++
		}
	}
	return out, found == n
}

// delta is after−before for a counter; ok is false when either scrape
// lacks the series, which the caller reports as "not available".
func delta(before, after scrape, name string) (float64, bool) {
	a, ok1 := after[name]
	b, ok2 := before[name]
	return a - b, ok1 && ok2
}
