#ifndef BAUPLAN_STORAGE_FAULT_INJECTION_STORE_H_
#define BAUPLAN_STORAGE_FAULT_INJECTION_STORE_H_

#include <mutex>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace bauplan::storage {

/// Wraps a store and fails requests on demand — the failure-injection
/// harness the test suite uses to verify that catalog transactions,
/// table writes and pipeline runs degrade cleanly when the object store
/// misbehaves (every distributed-lakehouse failure mode starts here).
class FaultInjectionStore : public ObjectStore {
 public:
  /// Does not own `base`.
  explicit FaultInjectionStore(ObjectStore* base) : base_(base) {}

  /// Every operation fails with IOError after `n` more successful
  /// operations (n=0 fails the next one). Negative disables.
  void FailAfter(int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_after_ = n;
  }

  /// Fails only operations whose key starts with `prefix` (empty =
  /// any key). Applies to the FailAfter countdown.
  void FailOnlyPrefix(std::string prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_prefix_ = std::move(prefix);
  }

  /// Clears all injected behaviour.
  void Heal() {
    std::lock_guard<std::mutex> lock(mu_);
    fail_after_ = -1;
    fail_prefix_.clear();
  }

  Status Put(const std::string& key, Bytes data) override {
    BAUPLAN_RETURN_NOT_OK(MaybeFail(key, "PUT"));
    return base_->Put(key, std::move(data));
  }
  Result<Bytes> Get(const std::string& key) const override {
    BAUPLAN_RETURN_NOT_OK(MaybeFail(key, "GET"));
    return base_->Get(key);
  }
  Result<uint64_t> Head(const std::string& key) const override {
    BAUPLAN_RETURN_NOT_OK(MaybeFail(key, "HEAD"));
    return base_->Head(key);
  }
  Status Delete(const std::string& key) override {
    BAUPLAN_RETURN_NOT_OK(MaybeFail(key, "DELETE"));
    return base_->Delete(key);
  }
  Result<std::vector<ObjectMeta>> List(
      const std::string& prefix) const override {
    BAUPLAN_RETURN_NOT_OK(MaybeFail(prefix, "LIST"));
    return base_->List(prefix);
  }

 private:
  // Parallel runs drive this wrapper from concurrent node bodies, so
  // the countdown needs the lock the real store's own request path would
  // have anyway.
  Status MaybeFail(const std::string& key, const char* op) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (fail_after_ < 0) return Status::OK();
    if (!fail_prefix_.empty() &&
        key.compare(0, fail_prefix_.size(), fail_prefix_) != 0) {
      return Status::OK();
    }
    if (fail_after_ > 0) {
      --fail_after_;
      return Status::OK();
    }
    return Status::IOError(std::string("injected fault on ") + op +
                           " '" + key + "'");
  }

  ObjectStore* base_;
  mutable std::mutex mu_;
  mutable int64_t fail_after_ = -1;
  std::string fail_prefix_;
};

}  // namespace bauplan::storage

#endif  // BAUPLAN_STORAGE_FAULT_INJECTION_STORE_H_
