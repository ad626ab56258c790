package wire

import (
	"bytes"
	"sync"
	"testing"
)

// recordConn re-encodes every frame it sends into a private stream, so
// a test can compare what two runs put on the wire byte for byte (the
// encoder is deterministic given the frame sequence, symbol tables
// included).
type recordConn struct {
	Conn
	enc *Encoder
}

func (c *recordConn) Send(f Frame) error {
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	return c.Conn.Send(f)
}

// recordListener wraps every accepted connection in a recordConn
// writing to buf.
type recordListener struct {
	Listener
	buf *bytes.Buffer
}

func (l recordListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordConn{Conn: c, enc: NewEncoder(l.buf, nil)}, nil
}

// recordChanCluster runs the script on a 2-rank chan cluster and
// returns the encoded frame streams seed-to-worker and worker-to-seed.
func recordChanCluster(t *testing.T, s *Script) (down, up []byte) {
	t.Helper()
	cn := NewChanNet(nil, s.Seed, nil)
	inner, err := cn.Listen("seed")
	if err != nil {
		t.Fatal(err)
	}
	var downBuf, upBuf bytes.Buffer
	ln := recordListener{Listener: inner, buf: &downBuf}
	defer ln.Close()

	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := cn.Dial("seed")
		if err != nil {
			werr = err
			return
		}
		defer c.Close()
		nd := &Node{Rank: 1, Procs: 2, Script: s, Config: testConfig()}
		_, werr = nd.RunWorker(&recordConn{Conn: c, enc: NewEncoder(&upBuf, nil)})
	}()
	seed := &Node{Rank: 0, Procs: 2, Script: s, Config: testConfig()}
	_, err = seed.RunSeed(ln)
	wg.Wait()
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	return downBuf.Bytes(), upBuf.Bytes()
}

// TestChanClusterFramesDeterministic: one script run twice must put
// byte-identical frame streams on the wire in both directions. Effects
// inside a frame follow the engine's active order, so nothing about a
// frame may depend on map iteration or goroutine scheduling.
func TestChanClusterFramesDeterministic(t *testing.T) {
	s := GateScript(t)
	down1, up1 := recordChanCluster(t, s)
	down2, up2 := recordChanCluster(t, s)
	for _, c := range []struct {
		dir  string
		a, b []byte
	}{{"seed to worker", down1, down2}, {"worker to seed", up1, up2}} {
		if bytes.Equal(c.a, c.b) {
			continue
		}
		i := 0
		for i < len(c.a) && i < len(c.b) && c.a[i] == c.b[i] {
			i++
		}
		t.Errorf("%s: streams differ at byte %d (lengths %d and %d)", c.dir, i, len(c.a), len(c.b))
	}
}
