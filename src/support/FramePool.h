//===- support/FramePool.h - Refcounted, recycled wire frames ---*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport's frame type: an immutable refcounted byte buffer that a
/// multicast encodes once and every recipient leg shares. Compared to the
/// previous std::shared_ptr<const std::vector<uint8_t>> this removes the
/// two heap allocations per multicast (control block + byte storage): a
/// FramePool recycles released buffers, so steady-state round traffic runs
/// entirely on warm capacity. The refcount is atomic, so a frame may be
/// released on a thread other than its acquirer's; every in-tree
/// transport acquires and releases on one thread.
///
/// Discipline: a frame is writable (mutableBytes) only while its acquirer
/// holds the sole reference; once it has been shared with the transport it
/// is immutable.
///
/// A single-threaded receiver may attach a parsed form of the bytes to the
/// buffer (FrameRef::attachment): the DES runner decodes each multicast
/// frame once, on its first leg, and every later leg reads the attached
/// message. The attachment stays with the buffer across recycles, so its
/// storage is warm for the next payload. Every acquire bumps a generation
/// counter, which says whether the attachment still describes the current
/// payload of a recycled buffer.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SUPPORT_FRAMEPOOL_H
#define CLIFFEDGE_SUPPORT_FRAMEPOOL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace cliffedge {
namespace support {

class FramePool;

/// Base of a receiver's parsed form of a frame (see FrameRef::attachment).
class FrameAttachment {
public:
  FrameAttachment() = default;
  FrameAttachment(const FrameAttachment &) = delete;
  FrameAttachment &operator=(const FrameAttachment &) = delete;
  virtual ~FrameAttachment() = default;
};

/// One refcounted byte buffer. Lives on the heap; released back to its
/// owning pool (or deleted, for pool-less one-off frames) when the last
/// FrameRef drops.
class FrameBuf {
public:
  std::vector<uint8_t> Bytes;

private:
  friend class FrameRef;
  friend class FramePool;
  std::atomic<uint32_t> Refs{0};
  uint64_t Gen = 0;        ///< Bumped per pool acquire (attachment validity).
  FramePool *Pool = nullptr; ///< Recycle target; null = delete on release.
  /// Receiver-side parsed form; survives recycling (warm storage).
  std::unique_ptr<FrameAttachment> Attached;
  /// Generation Attached was last claimed for; Attached describes the
  /// current payload iff this equals Gen.
  uint64_t AttachedGen = 0;
};

/// Intrusive smart pointer to an immutable FrameBuf.
class FrameRef {
public:
  FrameRef() = default;
  /// Adopts \p B, which must already carry one reference for this handle.
  explicit FrameRef(FrameBuf *B) : Buf(B) {}
  FrameRef(const FrameRef &O) : Buf(O.Buf) {
    if (Buf)
      Buf->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  FrameRef(FrameRef &&O) noexcept : Buf(O.Buf) { O.Buf = nullptr; }
  FrameRef &operator=(const FrameRef &O) {
    FrameRef Tmp(O);
    std::swap(Buf, Tmp.Buf);
    return *this;
  }
  FrameRef &operator=(FrameRef &&O) noexcept {
    std::swap(Buf, O.Buf);
    return *this;
  }
  ~FrameRef() { release(); }

  explicit operator bool() const { return Buf != nullptr; }
  const std::vector<uint8_t> &operator*() const { return Buf->Bytes; }
  const std::vector<uint8_t> *operator->() const { return &Buf->Bytes; }

  /// Identity of the underlying buffer (pools recycle buffers, so it is
  /// only a key among frames alive at the same time).
  const FrameBuf *get() const { return Buf; }

  /// The receiver's parsed form of this frame's bytes, of type \p T
  /// (created on the buffer's first use). \p Current reports whether it
  /// already describes the current payload; when false, the caller must
  /// fill it before anyone else reads it — the slot is claimed for the
  /// current payload by this call. Single-threaded receivers only, and
  /// one attachment type per pool: the bytes stay immutable, but the
  /// attachment is a mutable cache beside them.
  template <typename T> T &attachment(bool &Current) const {
    assert(Buf && "null frame");
    if (!Buf->Attached) {
      Buf->Attached.reset(new T());
      Current = false;
    } else {
      Current = Buf->AttachedGen == Buf->Gen;
    }
    assert(dynamic_cast<T *>(Buf->Attached.get()) &&
           "one attachment type per frame pool");
    Buf->AttachedGen = Buf->Gen;
    return static_cast<T &>(*Buf->Attached);
  }

  /// Writable access, legal only while this handle is the sole owner —
  /// i.e. between pool acquire and the first share with the transport.
  std::vector<uint8_t> &mutableBytes() {
    assert(Buf && Buf->Refs.load(std::memory_order_relaxed) == 1 &&
           "frame already shared — its bytes are immutable");
    return Buf->Bytes;
  }

  /// One-off frame around \p Bytes, not pool-recycled (convenience for
  /// unicast callers and tests).
  static FrameRef fresh(std::vector<uint8_t> Bytes) {
    FrameBuf *B = new FrameBuf();
    B->Bytes = std::move(Bytes);
    B->Refs.store(1, std::memory_order_relaxed);
    return FrameRef(B);
  }

private:
  void release();

  FrameBuf *Buf = nullptr;
};

/// Recycler of FrameBufs. acquire() prefers a previously released buffer
/// (whose byte capacity is already warm); release happens automatically
/// when the last FrameRef drops. Thread-safe: acquire and release may run
/// on different threads.
class FramePool {
public:
  FramePool() = default;
  FramePool(const FramePool &) = delete;
  FramePool &operator=(const FramePool &) = delete;
  ~FramePool() {
    for (FrameBuf *B : Free)
      delete B;
  }

  /// Returns a sole-owner frame with undefined (stale) byte content; the
  /// caller overwrites it via mutableBytes() before sharing.
  FrameRef acquire() {
    FrameBuf *B = nullptr;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Free.empty()) {
        B = Free.back();
        Free.pop_back();
      }
    }
    if (!B)
      B = new FrameBuf();
    B->Pool = this;
    ++B->Gen;
    B->Refs.store(1, std::memory_order_relaxed);
    return FrameRef(B);
  }

private:
  friend class FrameRef;
  void recycle(FrameBuf *B) {
    std::lock_guard<std::mutex> Lock(Mu);
    Free.push_back(B);
  }

  std::mutex Mu;
  std::vector<FrameBuf *> Free;
};

inline void FrameRef::release() {
  if (!Buf)
    return;
  FrameBuf *B = Buf;
  Buf = nullptr;
  if (B->Refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  if (B->Pool)
    B->Pool->recycle(B);
  else
    delete B;
}

} // namespace support
} // namespace cliffedge

#endif // CLIFFEDGE_SUPPORT_FRAMEPOOL_H
