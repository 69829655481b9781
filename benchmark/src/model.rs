//! The generator's own statement of the answers: plain maps and a small
//! union-find over IRIs, no engine code.
//!
//! The certain answers of the templates in `ops` follow from three
//! facts about the generated system. The mapping assertions turn every
//! `film actor person` into the hub's `starring`/`artist` shape. An
//! equivalence `c ≡ c'` makes every triple about `c` also hold of `c'`.
//! And blank nodes never reach an answer. So a film's cast through the
//! hub shape is the cast of every film in its equivalence class, each
//! member widened to its own class; ages, nicknames and years belong to
//! classes, not to IRIs.

use crate::gen::Dataset;
use std::collections::{BTreeSet, HashMap, HashSet};

/// One answer row, rendered: IRIs and literal lexical forms as text,
/// `None` for an unbound column.
pub type Row = Vec<Option<String>>;

/// The model of a generated system.
pub struct Model {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    parent: Vec<u32>,
    /// Class root → members, sorted by IRI.
    members: HashMap<u32, Vec<u32>>,
    /// Film IRI → stored cast (the peer's own person IRIs).
    cast: HashMap<u32, Vec<u32>>,
    /// Person class → films that store one of its members in their cast.
    films_of: HashMap<u32, Vec<u32>>,
    age: HashMap<u32, usize>,
    nick: HashMap<u32, String>,
    /// Year → film classes released then.
    by_year: HashMap<usize, Vec<u32>>,
    /// Age → person classes of that age.
    by_age: HashMap<usize, Vec<u32>>,
}

impl Model {
    /// Builds the model of `data`.
    pub fn new(data: &Dataset) -> Model {
        let mut m = Model {
            ids: HashMap::new(),
            names: Vec::new(),
            parent: Vec::new(),
            members: HashMap::new(),
            cast: HashMap::new(),
            films_of: HashMap::new(),
            age: HashMap::new(),
            nick: HashMap::new(),
            by_year: HashMap::new(),
            by_age: HashMap::new(),
        };
        for person in &data.people {
            let p = m.node(&person.iri);
            for (_, alias) in &person.aliases {
                let a = m.node(alias);
                m.union(p, a);
            }
        }
        for films in &data.films {
            for film in films {
                m.node(&film.iri);
            }
        }
        for (hub_film, peer_film) in &data.film_links {
            let (a, b) = (m.node(hub_film), m.node(peer_film));
            m.union(a, b);
        }
        for n in 0..m.names.len() as u32 {
            let root = m.find(n);
            m.members.entry(root).or_default().push(n);
        }
        let names = &m.names;
        for list in m.members.values_mut() {
            list.sort_by(|a, b| names[*a as usize].cmp(&names[*b as usize]));
        }
        for person in &data.people {
            let root = m.find(m.ids[&person.iri]);
            m.age.insert(root, person.age);
            m.by_age.entry(person.age).or_default().push(root);
            if let Some(n) = &person.nick {
                m.nick.insert(root, n.clone());
            }
        }
        let mut seen_film_class = HashSet::new();
        for films in &data.films {
            for film in films {
                let f = m.ids[&film.iri];
                for person in &film.cast {
                    m.insert_cast(f, m.ids[person]);
                }
                let root = m.find(f);
                if seen_film_class.insert(root) {
                    m.by_year.entry(film.year).or_default().push(root);
                }
            }
        }
        m
    }

    fn node(&mut self, iri: &str) -> u32 {
        if let Some(&n) = self.ids.get(iri) {
            return n;
        }
        let n = self.names.len() as u32;
        self.ids.insert(iri.to_string(), n);
        self.names.push(iri.to_string());
        self.parent.push(n);
        n
    }

    fn find(&self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            n = self.parent[n as usize];
        }
        n
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }

    fn insert_cast(&mut self, film: u32, person: u32) -> bool {
        let cast = self.cast.entry(film).or_default();
        if cast.contains(&person) {
            return false;
        }
        cast.push(person);
        let root = self.find(person);
        self.films_of.entry(root).or_default().push(film);
        true
    }

    /// Records `film actor person` (a live insert). `false` if already stored.
    pub fn insert_actor(&mut self, film: &str, person: &str) -> bool {
        let (f, p) = (self.ids[film], self.ids[person]);
        self.insert_cast(f, p)
    }

    /// Drops `film actor person` (a live removal). `false` if not stored.
    pub fn remove_actor(&mut self, film: &str, person: &str) -> bool {
        let (f, p) = (self.ids[film], self.ids[person]);
        let Some(cast) = self.cast.get_mut(&f) else {
            return false;
        };
        let Some(at) = cast.iter().position(|&c| c == p) else {
            return false;
        };
        cast.swap_remove(at);
        let root = self.find(p);
        let films = self.films_of.get_mut(&root).expect("inverse of cast");
        let at = films.iter().position(|&x| x == f).expect("inverse of cast");
        films.swap_remove(at);
        true
    }

    fn class(&self, n: u32) -> &[u32] {
        &self.members[&self.find(n)]
    }

    fn name(&self, n: u32) -> &str {
        &self.names[n as usize]
    }

    /// Person classes in the cast of any film of `film`'s class.
    fn cast_classes(&self, film: u32) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for f in self.class(film) {
            for p in self.cast.get(f).map(Vec::as_slice).unwrap_or(&[]) {
                out.insert(self.find(*p));
            }
        }
        out
    }

    /// Every person IRI in the widened cast of `film`'s class.
    fn cast_members(&self, film: u32) -> Vec<u32> {
        self.cast_classes(film)
            .into_iter()
            .flat_map(|root| self.members[&root].iter().copied())
            .collect()
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows.dedup();
        rows
    }

    /// `SELECT ?p { <film> starring ?z . ?z artist ?p }`.
    pub fn cast_hub(&self, film: &str) -> Vec<Row> {
        let rows = self
            .cast_members(self.ids[film])
            .into_iter()
            .map(|p| vec![Some(self.name(p).to_string())])
            .collect();
        Self::sorted(rows)
    }

    /// `SELECT ?f { ?f starring ?z . ?z artist <person> }`.
    pub fn films_of(&self, person: &str) -> Vec<Row> {
        let root = self.find(self.ids[person]);
        let rows = self
            .films_of
            .get(&root)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .flat_map(|f| self.class(*f))
            .map(|f| vec![Some(self.name(*f).to_string())])
            .collect();
        Self::sorted(rows)
    }

    /// Example 1 with an OPTIONAL nickname: `(?x, ?y, ?n)`.
    pub fn age_opt(&self, film: &str) -> Vec<Row> {
        let mut rows = Vec::new();
        for root in self.cast_classes(self.ids[film]) {
            let age = self.age[&root].to_string();
            let nick = self.nick.get(&root);
            for p in &self.members[&root] {
                rows.push(vec![
                    Some(self.name(*p).to_string()),
                    Some(age.clone()),
                    nick.cloned(),
                ]);
            }
        }
        Self::sorted(rows)
    }

    /// `ASK { <film> starring ?z . ?z artist <person> }`.
    pub fn ask_cast(&self, film: &str, person: &str) -> bool {
        self.cast_classes(self.ids[film])
            .contains(&self.find(self.ids[person]))
    }

    fn year_classes(&self, year: usize) -> &[u32] {
        self.by_year.get(&year).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Rows of `age_range` before its LIMIT: `(?f, ?x, ?a)` over the
    /// films of `year` with `lo <= a < hi`.
    pub fn age_range_count(&self, year: usize, lo: usize, hi: usize) -> usize {
        self.year_classes(year)
            .iter()
            .map(|&film| {
                let in_range: usize = self
                    .cast_classes(film)
                    .into_iter()
                    .filter(|root| (lo..hi).contains(&self.age[root]))
                    .map(|root| self.members[&root].len())
                    .sum();
                self.class(film).len() * in_range
            })
            .sum()
    }

    /// Distinct `(?p, ?q)` sharing a film of `year`.
    pub fn costar_count(&self, year: usize) -> usize {
        let mut pairs: HashSet<(u32, u32)> = HashSet::new();
        for &film in self.year_classes(year) {
            let cast = self.cast_members(film);
            for &p in &cast {
                for &q in &cast {
                    pairs.insert((p, q));
                }
            }
        }
        pairs.len()
    }

    /// Distinct `(?f, ?p)` over the films of `year`, in any vocabulary.
    pub fn union_cast_count(&self, year: usize) -> usize {
        self.year_classes(year)
            .iter()
            .map(|&film| self.class(film).len() * self.cast_members(film).len())
            .sum()
    }

    /// Rows of `nick_opt_scan`: every IRI of every person aged `age`,
    /// and how many of those rows bind the nickname.
    pub fn nick_opt_count(&self, age: usize) -> (usize, usize) {
        let classes = self.by_age.get(&age).map(Vec::as_slice).unwrap_or(&[]);
        let rows = classes.iter().map(|r| self.members[r].len()).sum();
        let bound = classes
            .iter()
            .filter(|r| self.nick.contains_key(r))
            .map(|r| self.members[r].len())
            .sum();
        (rows, bound)
    }
}
