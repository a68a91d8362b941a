//! The Amoeba **bank server** (§3.6): virtual money for resource
//! control and accounting.
//!
//! "The principal operation on bank accounts is transferring virtual
//! money from one account to another." Accounts hold balances in
//! multiple, possibly convertible, possibly inconvertible **currencies**
//! — the paper's example charges disk space in dollars, CPU time in
//! francs and phototypesetter pages in yen. Servers implement quotas by
//! pricing their resources; see `amoeba-flatfs`'s pre-paid file quota.
//!
//! The server mints money only through its **treasury** capability,
//! returned once at startup; everyone else can only move existing money
//! between accounts. Transfers need [`Rights::WRITE`] on the *source*
//! account only — depositing into someone's account is harmless.
//!
//! # Example
//!
//! ```
//! use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let (server, treasury_recv) = BankServer::new(
//!     vec![Currency::convertible("dollar", 1), Currency::convertible("yen", 150)],
//!     SchemeKind::Commutative,
//! );
//! let runner = ServiceRunner::spawn_open(&net, server);
//! let client = BankClient::open(&net, runner.put_port());
//! let treasury = treasury_recv.recv().unwrap();
//!
//! let alice = client.open_account().unwrap();
//! client.mint(&treasury, &alice, CurrencyId(0), 100).unwrap();
//! let bob = client.open_account().unwrap();
//! client.transfer(&alice, &bob, CurrencyId(0), 30).unwrap();
//! assert_eq!(client.balance(&alice, CurrencyId(0)).unwrap(), 70);
//! assert_eq!(client.balance(&bob, CurrencyId(0)).unwrap(), 30);
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectTable, RequestCtx, Service, ServiceClient,
};
use bytes::Bytes;
use std::collections::HashMap;

/// Bank operation codes. What each needs of the presented capability
/// is declared once, in the server's command table.
pub mod ops {
    /// Open an empty account. Reply: capability.
    pub const OPEN: u32 = 1;
    /// Balance query. Params: `u32 currency`. Reply: `u64`.
    pub const BALANCE: u32 = 2;
    /// Transfer. Capability: the source. Params: `cap to`,
    /// `u32 currency`, `u64 amount`.
    pub const TRANSFER: u32 = 3;
    /// Mint new money into an account. Capability: the treasury.
    /// Params: `cap to`, `u32 currency`, `u64 amount`.
    pub const MINT: u32 = 4;
    /// Convert between convertible currencies within one account.
    /// Params: `u32 from`, `u32 to`, `u64 amount` (in `from` units).
    /// Reply: `u64` credited amount.
    pub const CONVERT: u32 = 5;
    /// Close the account; remaining balances vanish.
    pub const CLOSE: u32 = 6;
    /// Account statement. Reply: `u32 n`, then n ×
    /// (`u32 kind`, `u32 currency`, `u64 amount`) entries, oldest
    /// first. Kinds: 0 debit, 1 credit, 2 mint, 3 convert-out,
    /// 4 convert-in.
    pub const STATEMENT: u32 = 7;
}

/// One line of an account statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementEntry {
    /// What happened.
    pub kind: EntryKind,
    /// The currency involved.
    pub currency: CurrencyId,
    /// The amount moved.
    pub amount: u64,
}

/// Statement entry kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum EntryKind {
    /// Money left the account via TRANSFER.
    Debit = 0,
    /// Money arrived via TRANSFER or MINT deposit.
    Credit = 1,
    /// Freshly minted money arrived (treasury operation).
    Mint = 2,
    /// CONVERT consumed this amount.
    ConvertOut = 3,
    /// CONVERT produced this amount.
    ConvertIn = 4,
}

impl EntryKind {
    fn from_u32(v: u32) -> Option<EntryKind> {
        Some(match v {
            0 => EntryKind::Debit,
            1 => EntryKind::Credit,
            2 => EntryKind::Mint,
            3 => EntryKind::ConvertOut,
            4 => EntryKind::ConvertIn,
            _ => return None,
        })
    }
}

/// Statements are bounded; older entries are discarded.
const STATEMENT_CAPACITY: usize = 64;

/// Identifies a currency by its index in the server's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CurrencyId(pub u32);

/// A currency the bank supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Currency {
    name: String,
    /// Units of the *base* currency one unit of this currency is worth,
    /// or `None` if inconvertible.
    rate_to_base: Option<u64>,
}

impl Currency {
    /// A convertible currency: `rate_to_base` units of currency 0 per
    /// unit of this one.
    ///
    /// # Panics
    /// Panics if `rate_to_base` is zero.
    pub fn convertible(name: &str, rate_to_base: u64) -> Currency {
        assert!(rate_to_base > 0, "conversion rate must be nonzero");
        Currency {
            name: name.to_string(),
            rate_to_base: Some(rate_to_base),
        }
    }

    /// An inconvertible currency (e.g. phototypesetter pages — "in some
    /// cases returning the resource might not result in the client
    /// getting his money").
    pub fn inconvertible(name: &str) -> Currency {
        Currency {
            name: name.to_string(),
            rate_to_base: None,
        }
    }

    /// The currency's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[derive(Debug, Default)]
struct Account {
    balances: HashMap<CurrencyId, u64>,
    is_treasury: bool,
    history: Vec<StatementEntry>,
}

impl Account {
    fn record(&mut self, kind: EntryKind, currency: CurrencyId, amount: u64) {
        if self.history.len() == STATEMENT_CAPACITY {
            self.history.remove(0);
        }
        self.history.push(StatementEntry {
            kind,
            currency,
            amount,
        });
    }
}

/// The bank server.
#[derive(Debug)]
pub struct BankServer {
    table: ObjectTable<Account>,
    currencies: Vec<Currency>,
    treasury_tx: Option<std::sync::mpsc::Sender<Capability>>,
}

/// Receives the treasury (mint-authority) capability once the server is
/// bound and running. The capability can only be minted after the
/// service learns its put-port, which happens on the runner thread —
/// hence the channel.
pub type TreasuryReceiver = std::sync::mpsc::Receiver<Capability>;

impl BankServer {
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::OPEN, Self::open),
        Command::new(ops::BALANCE, Rights::READ, Self::balance),
        Command::new(ops::TRANSFER, Rights::WRITE, Self::transfer),
        Command::new(ops::MINT, Rights::OWNER, Self::mint),
        Command::new(ops::CONVERT, Rights::WRITE, Self::convert),
        Command::new(ops::CLOSE, Rights::DELETE, Self::close),
        Command::new(ops::STATEMENT, Rights::READ, Self::statement),
    ];

    /// Creates a bank with the given currency registry. Currency 0 is
    /// the base for conversions.
    ///
    /// Returns the server and a receiver that yields the **treasury
    /// capability** (mint authority) once the server is running.
    ///
    /// # Panics
    /// Panics if no currencies are given.
    pub fn new(currencies: Vec<Currency>, scheme: SchemeKind) -> (BankServer, TreasuryReceiver) {
        assert!(!currencies.is_empty(), "at least one currency required");
        let (tx, rx) = std::sync::mpsc::channel();
        (
            BankServer {
                table: ObjectTable::unbound(scheme.instantiate()),
                currencies,
                treasury_tx: Some(tx),
            },
            rx,
        )
    }

    fn currency(&self, id: u32) -> Option<&Currency> {
        self.currencies.get(id as usize)
    }

    fn open(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        let (_, cap) = self.table.create(Account::default());
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn balance(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let currency = wire::Reader::new(&req.params)
            .u32()
            .ok_or(Status::BadRequest)?;
        if self.currency(currency).is_none() {
            return Err(Status::OutOfRange);
        }
        let v = self.table.with_object(&req.cap, need, |acct| {
            acct.balances
                .get(&CurrencyId(currency))
                .copied()
                .unwrap_or(0)
        })?;
        Ok(wire::Writer::new().u64(v).finish())
    }

    fn mint(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.move_money(req, need, true)
    }

    fn transfer(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.move_money(req, need, false)
    }

    /// TRANSFER, or MINT (`minting`) from the treasury: `need` is what
    /// the source capability must carry.
    fn move_money(&self, req: &Request, need: Rights, minting: bool) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(to_cap), Some(currency), Some(amount)) = (r.cap(), r.u32(), r.u64()) else {
            return Err(Status::BadRequest);
        };
        if self.currency(currency).is_none() {
            return Err(Status::OutOfRange);
        }
        let cur = CurrencyId(currency);

        // Validate the destination before touching the source: a forged
        // or already-closed destination must fail the transfer without
        // ever starting a withdrawal (under concurrent dispatch the
        // rollback below is best-effort, so not withdrawing at all is
        // strictly safer).
        self.table.validate(&to_cap)?;

        if minting {
            // Only the treasury may mint.
            if !self.table.with_object(&req.cap, need, |a| a.is_treasury)? {
                return Err(Status::RightsViolation);
            }
        } else {
            // Withdraw from the source; deposit is performed below.
            let withdrawn = self.table.with_object_mut(&req.cap, need, |acct| {
                let bal = acct.balances.entry(cur).or_insert(0);
                if *bal < amount {
                    false
                } else {
                    *bal -= amount;
                    acct.record(EntryKind::Debit, cur, amount);
                    true
                }
            })?;
            if !withdrawn {
                return Err(Status::InsufficientFunds);
            }
        }

        // Deposit. The destination capability must be genuine, but any
        // rights suffice: money in your account never hurts you.
        let credit_kind = if minting {
            EntryKind::Mint
        } else {
            EntryKind::Credit
        };
        let deposited = self.table.with_object_mut(&to_cap, Rights::NONE, |acct| {
            *acct.balances.entry(cur).or_insert(0) += amount;
            acct.record(credit_kind, cur, amount);
        });
        if deposited.is_err() && !minting {
            // Roll the withdrawal back; the transfer is atomic. If the
            // source account was concurrently closed the rollback finds
            // nothing — the amount is forfeited exactly as if it had
            // still been in the account at CLOSE ("remaining balances
            // vanish").
            let _ = self.table.with_object_mut(&req.cap, need, |acct| {
                *acct.balances.entry(cur).or_insert(0) += amount;
                acct.record(EntryKind::Credit, cur, amount);
            });
        }
        deposited?;
        Ok(Bytes::new())
    }

    fn convert(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(from), Some(to), Some(amount)) = (r.u32(), r.u32(), r.u64()) else {
            return Err(Status::BadRequest);
        };
        let (Some(from_c), Some(to_c)) = (self.currency(from), self.currency(to)) else {
            return Err(Status::OutOfRange);
        };
        let (Some(from_rate), Some(to_rate)) = (from_c.rate_to_base, to_c.rate_to_base) else {
            return Err(Status::Unsupported); // inconvertible
        };
        // amount × from_rate base units, floored into `to` units.
        let base = amount.checked_mul(from_rate).ok_or(Status::OutOfRange)?;
        let credited = base / to_rate;
        let result = self.table.with_object_mut(&req.cap, need, |acct| {
            let bal = acct.balances.entry(CurrencyId(from)).or_insert(0);
            if *bal < amount {
                return None;
            }
            *bal -= amount;
            *acct.balances.entry(CurrencyId(to)).or_insert(0) += credited;
            acct.record(EntryKind::ConvertOut, CurrencyId(from), amount);
            acct.record(EntryKind::ConvertIn, CurrencyId(to), credited);
            Some(credited)
        })?;
        let c = result.ok_or(Status::InsufficientFunds)?;
        Ok(wire::Writer::new().u64(c).finish())
    }

    fn statement(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        Ok(self.table.with_object(&req.cap, need, |acct| {
            let mut w = wire::Writer::new().u32(acct.history.len() as u32);
            for e in &acct.history {
                w = w.u32(e.kind as u32).u32(e.currency.0).u64(e.amount);
            }
            w.finish()
        })?)
    }

    fn close(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.table.delete(&req.cap, need)?;
        Ok(Bytes::new())
    }
}

impl Service for BankServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
        // Mint the treasury account and hand its capability back to the
        // process that created the server.
        let (_, cap) = self.table.create(Account {
            balances: HashMap::new(),
            is_treasury: true,
            history: Vec::new(),
        });
        if let Some(tx) = self.treasury_tx.take() {
            let _ = tx.send(cap);
        }
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// A typed client for the bank server.
#[derive(Debug)]
pub struct BankClient {
    svc: ServiceClient,
    port: Port,
}

impl BankClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> BankClient {
        BankClient {
            svc: ServiceClient::open(net),
            port,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> BankClient {
        BankClient { svc, port }
    }

    /// The bank's put-port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Opens an empty account.
    ///
    /// # Errors
    /// Transport errors.
    pub fn open_account(&self) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::OPEN, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// The balance of `account` in `currency`.
    ///
    /// # Errors
    /// Validation errors; `OutOfRange` for unknown currencies.
    pub fn balance(&self, account: &Capability, currency: CurrencyId) -> Result<u64, ClientError> {
        let body = self.svc.call(
            account,
            ops::BALANCE,
            wire::Writer::new().u32(currency.0).finish(),
        )?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// Moves `amount` of `currency` from `from` (requires WRITE) to `to`.
    ///
    /// # Errors
    /// `InsufficientFunds`, validation errors, transport errors.
    pub fn transfer(
        &self,
        from: &Capability,
        to: &Capability,
        currency: CurrencyId,
        amount: u64,
    ) -> Result<(), ClientError> {
        self.svc.call(
            from,
            ops::TRANSFER,
            wire::Writer::new()
                .cap(to)
                .u32(currency.0)
                .u64(amount)
                .finish(),
        )?;
        Ok(())
    }

    /// Mints new money into `to`; only works with the treasury
    /// capability.
    ///
    /// # Errors
    /// `RightsViolation` for non-treasury capabilities.
    pub fn mint(
        &self,
        treasury: &Capability,
        to: &Capability,
        currency: CurrencyId,
        amount: u64,
    ) -> Result<(), ClientError> {
        self.svc.call(
            treasury,
            ops::MINT,
            wire::Writer::new()
                .cap(to)
                .u32(currency.0)
                .u64(amount)
                .finish(),
        )?;
        Ok(())
    }

    /// Converts `amount` of `from` into `to` within the account,
    /// returning the credited amount.
    ///
    /// # Errors
    /// `Unsupported` if either currency is inconvertible;
    /// `InsufficientFunds`; validation errors.
    pub fn convert(
        &self,
        account: &Capability,
        from: CurrencyId,
        to: CurrencyId,
        amount: u64,
    ) -> Result<u64, ClientError> {
        let body = self.svc.call(
            account,
            ops::CONVERT,
            wire::Writer::new()
                .u32(from.0)
                .u32(to.0)
                .u64(amount)
                .finish(),
        )?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// The account's statement, oldest entry first (bounded history).
    ///
    /// # Errors
    /// Validation errors.
    pub fn statement(&self, account: &Capability) -> Result<Vec<StatementEntry>, ClientError> {
        let body = self.svc.call(account, ops::STATEMENT, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        let n = r.u32().ok_or(ClientError::Malformed)?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let kind = EntryKind::from_u32(r.u32().ok_or(ClientError::Malformed)?)
                .ok_or(ClientError::Malformed)?;
            let currency = CurrencyId(r.u32().ok_or(ClientError::Malformed)?);
            let amount = r.u64().ok_or(ClientError::Malformed)?;
            out.push(StatementEntry {
                kind,
                currency,
                amount,
            });
        }
        Ok(out)
    }

    /// Closes the account (requires DELETE).
    ///
    /// # Errors
    /// Validation errors.
    pub fn close(&self, account: &Capability) -> Result<(), ClientError> {
        self.svc.call(account, ops::CLOSE, Bytes::new())?;
        Ok(())
    }

    /// Access to the generic capability operations.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_server::ServiceRunner;

    fn setup() -> (
        Network,
        amoeba_server::ServiceRunner,
        BankClient,
        Capability,
    ) {
        let net = Network::new();
        let (server, treasury_rx) = BankServer::new(
            vec![
                Currency::convertible("dollar", 1),
                Currency::convertible("yen", 150),
                Currency::inconvertible("page"),
            ],
            SchemeKind::Commutative,
        );
        let runner = ServiceRunner::spawn_open(&net, server);
        let client = BankClient::open(&net, runner.put_port());
        let treasury = treasury_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("treasury capability");
        (net, runner, client, treasury)
    }

    const USD: CurrencyId = CurrencyId(0);
    const YEN: CurrencyId = CurrencyId(1);
    const PAGE: CurrencyId = CurrencyId(2);

    #[test]
    fn mint_and_balances() {
        let (_n, runner, client, treasury) = setup();
        let acct = client.open_account().unwrap();
        assert_eq!(client.balance(&acct, USD).unwrap(), 0);
        client.mint(&treasury, &acct, USD, 500).unwrap();
        assert_eq!(client.balance(&acct, USD).unwrap(), 500);
        assert_eq!(client.balance(&acct, YEN).unwrap(), 0);
        runner.stop();
    }

    #[test]
    fn non_treasury_cannot_mint() {
        let (_n, runner, client, _treasury) = setup();
        let a = client.open_account().unwrap();
        let b = client.open_account().unwrap();
        assert_eq!(
            client.mint(&a, &b, USD, 100).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn transfer_conserves_money() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        let b = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 100).unwrap();
        client.transfer(&a, &b, USD, 60).unwrap();
        assert_eq!(client.balance(&a, USD).unwrap(), 40);
        assert_eq!(client.balance(&b, USD).unwrap(), 60);
        runner.stop();
    }

    #[test]
    fn overdraft_rejected() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        let b = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 10).unwrap();
        assert_eq!(
            client.transfer(&a, &b, USD, 11).unwrap_err(),
            ClientError::Status(Status::InsufficientFunds)
        );
        assert_eq!(client.balance(&a, USD).unwrap(), 10);
        runner.stop();
    }

    #[test]
    fn transfer_needs_write_on_source_only() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        let b = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 100).unwrap();
        // Read-only cap on the source: refused.
        let a_ro = client.service().restrict(&a, Rights::READ).unwrap();
        assert_eq!(
            client.transfer(&a_ro, &b, USD, 1).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        // Deposit-only (no-rights) cap on the destination: fine.
        let b_none = client.service().restrict(&b, Rights::NONE).unwrap();
        client.transfer(&a, &b_none, USD, 5).unwrap();
        assert_eq!(client.balance(&b, USD).unwrap(), 5);
        runner.stop();
    }

    #[test]
    fn failed_deposit_rolls_back_withdrawal() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 100).unwrap();
        let b = client.open_account().unwrap();
        let dead_b = b.with_check(b.check ^ 1); // forged destination
        assert!(client.transfer(&a, &dead_b, USD, 50).is_err());
        assert_eq!(client.balance(&a, USD).unwrap(), 100, "rolled back");
        runner.stop();
    }

    #[test]
    fn conversion_between_convertible_currencies() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 300).unwrap();
        // 300 dollars at 1 base each = 300 base = 2 yen (150 base each).
        let credited = client.convert(&a, USD, YEN, 300).unwrap();
        assert_eq!(credited, 2);
        assert_eq!(client.balance(&a, USD).unwrap(), 0);
        assert_eq!(client.balance(&a, YEN).unwrap(), 2);
        runner.stop();
    }

    #[test]
    fn inconvertible_currency_refuses_conversion() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        client.mint(&treasury, &a, PAGE, 10).unwrap();
        assert_eq!(
            client.convert(&a, PAGE, USD, 5).unwrap_err(),
            ClientError::Status(Status::Unsupported)
        );
        runner.stop();
    }

    #[test]
    fn unknown_currency_out_of_range() {
        let (_n, runner, client, _t) = setup();
        let a = client.open_account().unwrap();
        assert_eq!(
            client.balance(&a, CurrencyId(99)).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        runner.stop();
    }

    #[test]
    fn statement_records_history() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        let b = client.open_account().unwrap();
        client.mint(&treasury, &a, USD, 100).unwrap();
        client.transfer(&a, &b, USD, 30).unwrap();
        client.convert(&a, USD, YEN, 70).unwrap(); // 70 base = 0 yen
        let hist = client.statement(&a).unwrap();
        assert_eq!(
            hist[0],
            StatementEntry {
                kind: EntryKind::Mint,
                currency: USD,
                amount: 100
            }
        );
        assert_eq!(
            hist[1],
            StatementEntry {
                kind: EntryKind::Debit,
                currency: USD,
                amount: 30
            }
        );
        assert_eq!(hist[2].kind, EntryKind::ConvertOut);
        assert_eq!(hist[3].kind, EntryKind::ConvertIn);
        let hist_b = client.statement(&b).unwrap();
        assert_eq!(
            hist_b,
            vec![StatementEntry {
                kind: EntryKind::Credit,
                currency: USD,
                amount: 30
            }]
        );
        runner.stop();
    }

    #[test]
    fn statement_history_is_bounded() {
        let (_n, runner, client, treasury) = setup();
        let a = client.open_account().unwrap();
        for _ in 0..100 {
            client.mint(&treasury, &a, USD, 1).unwrap();
        }
        let hist = client.statement(&a).unwrap();
        assert_eq!(hist.len(), 64, "history must be bounded");
        runner.stop();
    }

    #[test]
    fn statement_requires_read() {
        let (_n, runner, client, _t) = setup();
        let a = client.open_account().unwrap();
        let none = client.service().restrict(&a, Rights::NONE).unwrap();
        assert_eq!(
            client.statement(&none).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn close_account() {
        let (_n, runner, client, _t) = setup();
        let a = client.open_account().unwrap();
        client.close(&a).unwrap();
        assert!(client.balance(&a, USD).is_err());
        runner.stop();
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let (_n, runner, client, treasury) = setup();
        let funded = || {
            let a = client.open_account().unwrap();
            client.mint(&treasury, &a, USD, 100).unwrap();
            a
        };
        let to = client.open_account().unwrap();
        let pay = || wire::Writer::new().cap(&to).u32(USD.0).u64(10).finish();
        let transfer = || (funded(), pay());
        let mint = || (treasury, pay());
        let convert = || (funded(), wire::Writer::new().u32(0).u32(1).u64(60).finish());
        let read = || (funded(), wire::Writer::new().u32(USD.0).finish());
        let bare = || (funded(), Bytes::new());
        assert_rights_enforced(
            client.service(),
            BankServer::COMMANDS,
            &[
                Probe::new(ops::BALANCE, Rights::READ, &read),
                Probe::new(ops::TRANSFER, Rights::WRITE, &transfer),
                Probe::new(ops::MINT, Rights::OWNER, &mint),
                Probe::new(ops::CONVERT, Rights::WRITE, &convert),
                Probe::new(ops::CLOSE, Rights::DELETE, &bare),
                Probe::new(ops::STATEMENT, Rights::READ, &bare),
            ],
            |a| {
                let balance = |c| client.balance(a, c);
                (balance(USD), balance(YEN), client.statement(a))
            },
        );
        runner.stop();
    }
}
