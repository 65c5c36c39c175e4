// Fixture for analyze.py --self-test: the lock-cycle pass.
//
// A::lock_then_peer acquires B::m_ while holding A::m_, and
// B::lock_then_peer acquires A::m_ while holding B::m_ — a two-node cycle
// in the acquired-while-holding digraph, found interprocedurally (neither
// function acquires both locks itself).
//
// PairTaker uses MutexPairLock in both argument orders; std::lock orders
// the pair atomically, so this must contribute no edges and no cycle.

struct B;

struct A {
  Mutex m_;
  B* peer_ = nullptr;
  void lock_then_peer();
};

struct B {
  Mutex m_;
  A* peer_ = nullptr;
  void lock_then_peer();
};

void A::lock_then_peer() {
  MutexLock lock(m_);
  peer_->lock_then_peer();
}

void B::lock_then_peer() {
  MutexLock lock(m_);
  peer_->lock_then_peer();
}

struct PairTaker {
  Mutex a_;
  Mutex b_;
  void forward() { MutexPairLock lock(a_, b_); }
  void backward() { MutexPairLock lock(b_, a_); }
};
