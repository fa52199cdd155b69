#ifndef XYMON_MANAGER_USER_REGISTRY_H_
#define XYMON_MANAGER_USER_REGISTRY_H_

#include <map>
#include <optional>
#include <string>

#include "src/common/result.h"
#include "src/storage/persistent_map.h"

namespace xymon::manager {

/// An account known to the subscription system.
struct User {
  std::string name;
  std::string email;
  /// Privileged users may register subscriptions above the cost budget
  /// (paper §5.4: "restrict the right of specifying expensive subscriptions
  /// to users with appropriate privileges").
  bool privileged = false;
};

/// The user store (paper §3: "Information about users such as email
/// addresses is also stored in this [MySQL] database"). Optionally durable
/// via AttachStore.
class UserRegistry {
 public:
  /// Recovers existing accounts from (and writes through to) the durable
  /// `store`, whose lifetime the caller manages (the StorageHub when the
  /// monitor runs). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the backing store (no-op without storage).
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  Status AddUser(const User& user);
  Status RemoveUser(const std::string& name);
  /// Flips the privilege bit.
  Status SetPrivileged(const std::string& name, bool privileged);

  /// nullopt if unknown.
  std::optional<User> Find(const std::string& name) const;

  size_t user_count() const { return users_.size(); }

 private:
  static std::string Encode(const User& user);
  static std::optional<User> Decode(const std::string& name,
                                    std::string_view record);
  Status Persist(const User& user);

  std::map<std::string, User> users_;
  storage::PersistentMap* store_ = nullptr;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_USER_REGISTRY_H_
