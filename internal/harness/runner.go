// The local-exec runner: builds the p2pnode binary once per run and
// manages a fleet of real node processes speaking the machine protocol
// (internal/harness/proto) over their stdin/stdout. This is the
// Testground "local:exec" idea scaled down to one machine — real
// processes, real sockets, no shared memory with the system under test.
package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"p2pshare/internal/harness/proto"
)

// ModuleRoot walks up from the working directory to the go.mod, which is
// where `go build ./cmd/p2pnode` must run.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harness: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// BuildNodeBinary compiles cmd/p2pnode into dir and returns the binary
// path. One build serves every process of the run.
func BuildNodeBinary(dir string) (string, error) {
	root, err := ModuleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "p2pnode")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/p2pnode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: build p2pnode: %w\n%s", err, out)
	}
	return bin, nil
}

// stderrTail keeps the last chunk of a process's stderr for error
// reports without letting a chatty node grow memory unboundedly.
type stderrTail struct {
	mu  sync.Mutex
	buf []byte
}

const stderrTailMax = 4096

func (t *stderrTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > stderrTailMax {
		t.buf = t.buf[len(t.buf)-stderrTailMax:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *stderrTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// NodeProc is one running machine-mode p2pnode.
type NodeProc struct {
	ID    int
	Addr  string // bound listen address, learned from the ready line
	Alive bool   // false after Kill or Quit

	cmd    *exec.Cmd
	stdin  io.WriteCloser
	resp   chan proto.Response
	stderr *stderrTail
}

// Runner owns the fleet for one plan run.
type Runner struct {
	Bin   string
	Procs []*NodeProc
}

// nodeArgs renders the common shape/config argv for node id.
func nodeArgs(id int, bootstrap string, p Plan) []string {
	args := []string{
		"-harness",
		"-id", strconv.Itoa(id),
		"-listen", "127.0.0.1:0",
		"-docs", strconv.Itoa(p.Docs),
		"-cats", strconv.Itoa(p.Cats),
		"-nodes", strconv.Itoa(p.Nodes),
		"-clusters", strconv.Itoa(p.Clusters),
		"-seed", strconv.FormatInt(p.Seed, 10),
	}
	if bootstrap != "" {
		args = append(args, "-bootstrap", bootstrap)
	}
	if p.Content {
		args = append(args, "-content")
		if p.ContentCacheMB > 0 {
			args = append(args, "-content-cachemb", strconv.FormatInt(p.ContentCacheMB, 10))
		}
	}
	if p.DocBytes > 0 {
		args = append(args, "-docbytes", strconv.FormatInt(p.DocBytes, 10))
	}
	args = append(args, "-cachemb", strconv.Itoa(nodeCacheMB))
	if p.AdaptEveryMS > 0 {
		args = append(args, "-adapt-interval", fmt.Sprintf("%dms", p.AdaptEveryMS))
	}
	return args
}

// Spawn launches one node process and waits for its ready line.
func (r *Runner) Spawn(id int, bootstrap string, p Plan, timeout time.Duration) (*NodeProc, error) {
	np := &NodeProc{ID: id, stderr: &stderrTail{}}
	cmd := exec.Command(r.Bin, nodeArgs(id, bootstrap, p)...)
	cmd.Stderr = np.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: start node %d: %w", id, err)
	}
	np.cmd = cmd
	np.stdin = stdin
	np.resp = make(chan proto.Response, 8)
	go np.readLoop(stdout)

	select {
	case rsp, ok := <-np.resp:
		if !ok || rsp.Op != proto.OpReady || rsp.Ready == nil {
			np.Kill()
			return nil, fmt.Errorf("harness: node %d: no ready line (got %+v)\nstderr: %s", id, rsp, np.stderr)
		}
		np.Addr = rsp.Ready.Addr
		np.Alive = true
		return np, nil
	case <-time.After(timeout):
		np.Kill()
		return nil, fmt.Errorf("harness: node %d: timeout waiting for ready\nstderr: %s", id, np.stderr)
	}
}

func (np *NodeProc) readLoop(stdout io.Reader) {
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 4<<20)
	for sc.Scan() {
		var rsp proto.Response
		if err := json.Unmarshal(sc.Bytes(), &rsp); err != nil {
			continue // stray non-protocol line; machine mode shouldn't emit any
		}
		np.resp <- rsp
	}
	close(np.resp)
}

// Call sends one command and waits for its response (the protocol is
// FIFO, so the next response answers this command).
func (np *NodeProc) Call(cmd proto.Command, timeout time.Duration) (proto.Response, error) {
	line, err := json.Marshal(cmd)
	if err != nil {
		return proto.Response{}, err
	}
	line = append(line, '\n')
	if _, err := np.stdin.Write(line); err != nil {
		return proto.Response{}, fmt.Errorf("harness: node %d send %s: %w\nstderr: %s", np.ID, cmd.Op, err, np.stderr)
	}
	select {
	case rsp, ok := <-np.resp:
		if !ok {
			return proto.Response{}, fmt.Errorf("harness: node %d exited during %s\nstderr: %s", np.ID, cmd.Op, np.stderr)
		}
		if !rsp.OK {
			return rsp, fmt.Errorf("harness: node %d %s: %s", np.ID, cmd.Op, rsp.Err)
		}
		return rsp, nil
	case <-time.After(timeout):
		return proto.Response{}, fmt.Errorf("harness: node %d: %s timed out after %v", np.ID, cmd.Op, timeout)
	}
}

// Quit asks the node to leave cleanly and waits for the process to exit.
func (np *NodeProc) Quit(timeout time.Duration) error {
	if !np.Alive {
		return nil
	}
	_, err := np.Call(proto.Command{Op: proto.OpQuit}, timeout)
	np.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- np.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(timeout):
		np.cmd.Process.Kill()
		<-done
	}
	np.Alive = false
	return err
}

// Kill hard-kills the process (SIGKILL) — the churn primitive: no
// goodbye, peers must detect the failure.
func (np *NodeProc) Kill() {
	if np.cmd != nil && np.cmd.Process != nil {
		np.cmd.Process.Kill()
		np.cmd.Wait()
	}
	np.Alive = false
}

// KillAll tears the whole fleet down (cleanup path).
func (r *Runner) KillAll() {
	for _, np := range r.Procs {
		np.Kill()
	}
}

// Live returns the currently alive processes.
func (r *Runner) Live() []*NodeProc {
	live := make([]*NodeProc, 0, len(r.Procs))
	for _, np := range r.Procs {
		if np.Alive {
			live = append(live, np)
		}
	}
	return live
}
