// Package zonefile implements registry zone-file export, parsing and
// diffing. Daily zone files were the classic research data source for domain
// births and deaths: prior work (Game of Registrars; WHOIS Lost in
// Translation) detected deletions and re-registrations by diffing
// consecutive days — which is exactly why its time resolution was one day,
// and why this paper needed RDAP timestamps to reach seconds. The package
// exists to reproduce that baseline measurement channel.
//
// The export format is a minimal RFC 1035 master file: one NS delegation
// line per registered domain, preceded by the zone SOA.
package zonefile

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
)

// InZone reports whether a registration currently appears in its TLD zone:
// active and auto-renew-grace registrations do; redemption and pendingDelete
// have been pulled.
func InZone(d *model.Domain) bool {
	return d.Status == model.StatusActive || d.Status == model.StatusAutoRenew
}

// Export writes the current zone for tld as a master file. Domains are
// sorted by name, like real zone files after normalisation.
func Export(store *registry.Store, tld model.TLD, w io.Writer) error {
	var names []string
	reg := make(map[string]int)
	store.Each(func(d *model.Domain) bool {
		if d.TLD == tld && InZone(d) {
			names = append(names, d.Name)
			reg[d.Name] = d.RegistrarID
		}
		return true
	})
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$ORIGIN %s.\n", tld)
	fmt.Fprintf(bw, "%s. 900 IN SOA a.gtld-servers.example. nstld.example. 2018010100 1800 900 604800 86400\n", tld)
	for _, name := range names {
		fmt.Fprintf(bw, "%s. 172800 IN NS ns1.registrar%d.example.\n", name, reg[name])
		fmt.Fprintf(bw, "%s. 172800 IN NS ns2.registrar%d.example.\n", name, reg[name])
	}
	return bw.Flush()
}

// Parse reads a master file and returns the set of delegated domain names.
func Parse(r io.Reader) (map[string]bool, error) {
	names := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") || strings.HasPrefix(line, "$") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("zonefile: line %d: too few fields", lineNo)
		}
		if !strings.EqualFold(fields[3], "NS") {
			continue // SOA and other record types
		}
		name := strings.ToLower(strings.TrimSuffix(fields[0], "."))
		if strings.HasPrefix(name, ".") || strings.HasSuffix(name, ".") || strings.Contains(name, "..") {
			return nil, fmt.Errorf("zonefile: line %d: empty label in %q", lineNo, fields[0])
		}
		if strings.Contains(name, ".") { // skip the zone apex itself
			names[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("zonefile: scan: %w", err)
	}
	return names, nil
}

// Diff compares two zone snapshots, returning the names added (births and
// re-registrations) and removed (registrations pulled from the zone), each
// sorted.
func Diff(older, newer map[string]bool) (added, removed []string) {
	for n := range newer {
		if !older[n] {
			added = append(added, n)
		}
	}
	for n := range older {
		if !newer[n] {
			removed = append(removed, n)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// Server publishes zone files over HTTP, like registry zone-file access
// programs do:
//
//	GET /zone?tld=com
type Server struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	store *registry.Store
}

// NewServer returns a zone-file server over store.
func NewServer(store *registry.Store) *Server {
	s := &Server{store: store}
	mux := http.NewServeMux()
	mux.HandleFunc("/zone", s.handleZone)
	s.HTTP = serve.NewHTTP("zonefile", mux)
	return s
}

func (s *Server) handleZone(w http.ResponseWriter, r *http.Request) {
	tld := model.TLD(r.URL.Query().Get("tld"))
	if !s.store.HostsTLD(tld) {
		http.Error(w, fmt.Sprintf("unknown tld %q", tld), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/dns")
	_ = Export(s.store, tld, w)
}

// Fetch downloads and parses one zone snapshot from a Server.
func Fetch(httpClient *http.Client, baseURL string, tld model.TLD) (map[string]bool, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	resp, err := httpClient.Get(baseURL + "/zone?tld=" + string(tld))
	if err != nil {
		return nil, fmt.Errorf("zonefile: fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("zonefile: HTTP %d", resp.StatusCode)
	}
	return Parse(resp.Body)
}
