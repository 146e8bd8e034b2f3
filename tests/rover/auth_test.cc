#include "rover/auth.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pixels {
namespace {

TEST(AuthTest, RegisterAndLogin) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "secret", {"tpch"}).ok());
  auto token = auth.Login("alice", "secret");
  ASSERT_TRUE(token.ok());
  auto user = auth.Authenticate(*token);
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(*user, "alice");
}

TEST(AuthTest, WrongPasswordRejected) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "secret", {}).ok());
  EXPECT_FALSE(auth.Login("alice", "wrong").ok());
  EXPECT_FALSE(auth.Login("nobody", "secret").ok());
  // Same message for both (no user enumeration).
  EXPECT_EQ(auth.Login("alice", "wrong").status().message(),
            auth.Login("nobody", "x").status().message());
}

TEST(AuthTest, DuplicateUserRejected) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "a", {}).ok());
  EXPECT_TRUE(auth.RegisterUser("alice", "b", {}).IsAlreadyExists());
  EXPECT_TRUE(auth.RegisterUser("", "b", {}).IsInvalidArgument());
}

TEST(AuthTest, TokensAreUniquePerLogin) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "secret", {}).ok());
  auto t1 = auth.Login("alice", "secret");
  auto t2 = auth.Login("alice", "secret");
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_NE(*t1, *t2);
  // Both sessions valid simultaneously.
  EXPECT_TRUE(auth.Authenticate(*t1).ok());
  EXPECT_TRUE(auth.Authenticate(*t2).ok());
}

TEST(AuthTest, ConsecutiveLoginsYieldDistinctTokensThatEachAuthenticate) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "secret", {}).ok());
  std::vector<std::string> tokens;
  for (int i = 0; i < 8; ++i) {
    auto t = auth.Login("alice", "secret");
    ASSERT_TRUE(t.ok());
    // "tok-<session id>-<hash>": ids count up from 1, one per login.
    EXPECT_EQ(t->rfind("tok-" + std::to_string(i + 1) + "-", 0), 0u) << *t;
    for (const auto& prev : tokens) EXPECT_NE(*t, prev);
    tokens.push_back(*t);
  }
  for (const auto& t : tokens) {
    auto user = auth.Authenticate(t);
    ASSERT_TRUE(user.ok()) << t;
    EXPECT_EQ(*user, "alice");
  }
}

TEST(AuthTest, LogoutInvalidatesToken) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "secret", {}).ok());
  auto token = auth.Login("alice", "secret");
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(auth.Logout(*token).ok());
  EXPECT_FALSE(auth.Authenticate(*token).ok());
  EXPECT_TRUE(auth.Logout(*token).IsNotFound());
}

TEST(AuthTest, InvalidTokenRejected) {
  AuthService auth;
  EXPECT_FALSE(auth.Authenticate("tok-garbage").ok());
  EXPECT_FALSE(auth.Authenticate("").ok());
}

TEST(AuthTest, DatabaseAuthorization) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("alice", "x", {"tpch", "logs"}).ok());
  ASSERT_TRUE(auth.RegisterUser("bob", "y", {"logs"}).ok());
  EXPECT_TRUE(auth.IsAuthorized("alice", "tpch"));
  EXPECT_FALSE(auth.IsAuthorized("bob", "tpch"));
  EXPECT_FALSE(auth.IsAuthorized("nobody", "tpch"));
  EXPECT_EQ(auth.AuthorizedDbs("alice"),
            (std::vector<std::string>{"logs", "tpch"}));
  EXPECT_TRUE(auth.AuthorizedDbs("nobody").empty());
}

TEST(AuthTest, GrantExtendsAccess) {
  AuthService auth;
  ASSERT_TRUE(auth.RegisterUser("bob", "y", {}).ok());
  EXPECT_FALSE(auth.IsAuthorized("bob", "tpch"));
  ASSERT_TRUE(auth.GrantDatabase("bob", "tpch").ok());
  EXPECT_TRUE(auth.IsAuthorized("bob", "tpch"));
  EXPECT_TRUE(auth.GrantDatabase("nobody", "tpch").IsNotFound());
}

}  // namespace
}  // namespace pixels
