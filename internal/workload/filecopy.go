package workload

import (
	"fmt"

	"vscsistats/internal/fs"
	"vscsistats/internal/simclock"
)

// FileCopyConfig parameterizes the large-file-copy workload of §4.3. The
// decisive difference between Windows XP and Vista is the copy engine's
// transfer size: "the copy application in Microsoft Windows XP Pro is
// issuing I/Os of size 64K whereas in Microsoft Vista Enterprise, I/Os are
// primarily 1MB in size."
type FileCopyConfig struct {
	// FileBytes is the size of the file being copied.
	FileBytes int64
	// ChunkBytes is the copy engine's transfer size (64 KB on XP, 1 MB on
	// Vista).
	ChunkBytes int64
	// Pipeline is the number of chunks in flight (read-ahead/write-behind
	// depth of the copy engine).
	Pipeline int
	// Loop restarts the copy when it finishes (for fixed-duration runs).
	Loop bool
}

// XPCopyConfig returns the Windows XP profile for a copy of the given size.
func XPCopyConfig(fileBytes int64) FileCopyConfig {
	return FileCopyConfig{FileBytes: fileBytes, ChunkBytes: 64 << 10, Pipeline: 2, Loop: true}
}

// VistaCopyConfig returns the Windows Vista profile.
func VistaCopyConfig(fileBytes int64) FileCopyConfig {
	return FileCopyConfig{FileBytes: fileBytes, ChunkBytes: 1 << 20, Pipeline: 2, Loop: true}
}

// FileCopy copies a source file to a destination file through a chunked
// pipeline: each in-flight slot reads a source chunk and then writes it to
// the destination, so the device sees alternating bursts of large
// sequential reads and writes separated by the src→dst seek.
type FileCopy struct {
	cfg  FileCopyConfig
	eng  *simclock.Engine
	fsys fs.FS

	src, dst *fs.File
	next     int64 // next chunk offset to read
	inFlight int
	copies   int64
	running  bool
	stats    Stats
}

// NewFileCopy prepares a copy on the given filesystem.
func NewFileCopy(eng *simclock.Engine, fsys fs.FS, cfg FileCopyConfig) *FileCopy {
	if cfg.ChunkBytes <= 0 || cfg.FileBytes < cfg.ChunkBytes || cfg.Pipeline <= 0 {
		panic("workload: invalid file copy config")
	}
	return &FileCopy{cfg: cfg, eng: eng, fsys: fsys}
}

// Name implements Generator.
func (c *FileCopy) Name() string { return fmt.Sprintf("filecopy-%dk", c.cfg.ChunkBytes>>10) }

// Setup creates the source (full) and destination (empty) files.
func (c *FileCopy) Setup() error {
	src, err := c.fsys.Create("source.dat", c.cfg.FileBytes)
	if err != nil {
		return fmt.Errorf("filecopy setup: %w", err)
	}
	src.Prefill()
	dst, err := c.fsys.Create("copy.dat", c.cfg.FileBytes)
	if err != nil {
		return fmt.Errorf("filecopy setup: %w", err)
	}
	c.src, c.dst = src, dst
	return nil
}

// Start begins the pipelined copy.
func (c *FileCopy) Start() {
	c.running = true
	for i := 0; i < c.cfg.Pipeline; i++ {
		c.pump()
	}
}

// Stop ceases issuing new chunks.
func (c *FileCopy) Stop() { c.running = false }

// Stats implements Generator.
func (c *FileCopy) Stats() Stats { return c.stats }

// pump advances one pipeline slot: read the next source chunk, write it to
// the destination, repeat.
func (c *FileCopy) pump() {
	if !c.running {
		return
	}
	if c.next+c.cfg.ChunkBytes > c.cfg.FileBytes {
		if c.inFlight == 0 {
			c.copies++
			if !c.cfg.Loop {
				c.running = false
				return
			}
			c.next = 0
			for i := 0; i < c.cfg.Pipeline; i++ {
				c.pump()
			}
		}
		return
	}
	off := c.next
	c.next += c.cfg.ChunkBytes
	c.inFlight++
	start := c.eng.Now()
	c.src.Read(off, c.cfg.ChunkBytes, func(err error) {
		if err != nil {
			c.stats.Errors++
		}
		// Copy writes are flushed promptly by the copy engine's
		// write-behind; model them as synchronous chunk writes.
		c.dst.Write(off, c.cfg.ChunkBytes, true, func(err error) {
			if err != nil {
				c.stats.Errors++
			}
			c.inFlight--
			c.stats.Ops++
			c.stats.Bytes += c.cfg.ChunkBytes
			c.stats.TotalLatency += c.eng.Now() - start
			c.pump()
		})
	})
}
