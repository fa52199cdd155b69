#include "src/manager/user_registry.h"

#include "src/xml/codec.h"

namespace xymon::manager {

std::string UserRegistry::Encode(const User& user) {
  std::string out;
  xml::PutString(user.email, &out);
  out.push_back(user.privileged ? 1 : 0);
  return out;
}

std::optional<User> UserRegistry::Decode(const std::string& name,
                                         std::string_view record) {
  User user;
  user.name = name;
  if (!xml::GetString(&record, &user.email) || record.size() != 1) {
    return std::nullopt;
  }
  user.privileged = record[0] != 0;
  return user;
}

Status UserRegistry::AttachStore(storage::PersistentMap* store) {
  store_ = store;
  if (store_ == nullptr) return Status::OK();
  for (const auto& [name, record] : store_->data()) {
    auto user = Decode(name, record);
    if (!user.has_value()) {
      return Status::Corruption("malformed user record '" + name + "'");
    }
    users_[name] = *user;
  }
  return Status::OK();
}

Status UserRegistry::Persist(const User& user) {
  if (store_ == nullptr) return Status::OK();
  return store_->Put(user.name, Encode(user));
}

Status UserRegistry::AddUser(const User& user) {
  if (user.name.empty() || user.email.empty()) {
    return Status::InvalidArgument("user needs a name and an email");
  }
  if (users_.count(user.name) != 0) {
    return Status::AlreadyExists("user '" + user.name + "'");
  }
  XYMON_RETURN_IF_ERROR(Persist(user));
  users_[user.name] = user;
  return Status::OK();
}

Status UserRegistry::RemoveUser(const std::string& name) {
  if (users_.erase(name) == 0) {
    return Status::NotFound("user '" + name + "'");
  }
  if (store_ != nullptr) {
    XYMON_RETURN_IF_ERROR(store_->Delete(name));
  }
  return Status::OK();
}

Status UserRegistry::SetPrivileged(const std::string& name, bool privileged) {
  auto it = users_.find(name);
  if (it == users_.end()) {
    return Status::NotFound("user '" + name + "'");
  }
  it->second.privileged = privileged;
  return Persist(it->second);
}

std::optional<User> UserRegistry::Find(const std::string& name) const {
  auto it = users_.find(name);
  if (it == users_.end()) return std::nullopt;
  return it->second;
}

}  // namespace xymon::manager
