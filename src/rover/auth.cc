#include "rover/auth.h"

namespace pixels {

uint64_t AuthService::HashPassword(const std::string& password, uint64_t salt) {
  // FNV-1a over salt bytes then password bytes.
  uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (salt >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  for (unsigned char c : password) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Status AuthService::RegisterUser(const std::string& user,
                                 const std::string& password,
                                 std::set<std::string> authorized_dbs) {
  if (user.empty()) return Status::InvalidArgument("empty user name");
  if (users_.count(user) > 0) {
    return Status::AlreadyExists("user exists: " + user);
  }
  UserRecord rec;
  rec.salt = 0x9e3779b97f4a7c15ULL ^ (users_.size() * 1099511628211ULL);
  rec.password_hash = HashPassword(password, rec.salt);
  rec.dbs = std::move(authorized_dbs);
  users_[user] = std::move(rec);
  return Status::OK();
}

Status AuthService::GrantDatabase(const std::string& user,
                                  const std::string& db) {
  auto it = users_.find(user);
  if (it == users_.end()) return Status::NotFound("no user: " + user);
  it->second.dbs.insert(db);
  return Status::OK();
}

Result<std::string> AuthService::Login(const std::string& user,
                                       const std::string& password) {
  auto it = users_.find(user);
  if (it == users_.end() ||
      it->second.password_hash != HashPassword(password, it->second.salt)) {
    // Identical error for unknown user and bad password.
    return Status::InvalidArgument("invalid credentials");
  }
  // Both parts come from one read of the counter.
  const uint64_t id = next_token_++;
  std::string token = "tok-" + std::to_string(id) + "-" +
                      std::to_string(HashPassword(user, id * 0x5851f42d4c957f2dULL));
  sessions_[token] = user;
  return token;
}

Status AuthService::Logout(const std::string& token) {
  if (sessions_.erase(token) == 0) {
    return Status::NotFound("no such session");
  }
  return Status::OK();
}

Result<std::string> AuthService::Authenticate(const std::string& token) const {
  auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("invalid or expired session token");
  }
  return it->second;
}

bool AuthService::IsAuthorized(const std::string& user,
                               const std::string& db) const {
  auto it = users_.find(user);
  return it != users_.end() && it->second.dbs.count(db) > 0;
}

std::vector<std::string> AuthService::AuthorizedDbs(
    const std::string& user) const {
  std::vector<std::string> out;
  auto it = users_.find(user);
  if (it != users_.end()) {
    out.assign(it->second.dbs.begin(), it->second.dbs.end());
  }
  return out;
}

}  // namespace pixels
